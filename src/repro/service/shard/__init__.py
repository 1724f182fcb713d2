"""The service front-end: :mod:`repro.service.shard.server`."""
