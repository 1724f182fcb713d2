"""Task and task-sequence model (Section 2 of the paper).

Public surface:

* :class:`~repro.tasks.task.Task` — one user request.
* :class:`~repro.tasks.events.Arrival` / :class:`~repro.tasks.events.Departure`
  — sequence events.
* :class:`~repro.tasks.sequence.TaskSequence` — validated event sequence with
  the paper's statistics (``s(sigma)``, ``S(sigma; tau)``, ``L*``).
* :class:`~repro.tasks.builder.SequenceBuilder` — fluent construction;
  :func:`~repro.tasks.builder.figure1_sequence` — the paper's Figure 1
  example.

The names load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "builder": ["SequenceBuilder", "figure1_sequence"],
    "events": ["Arrival", "Departure", "Event", "EventKind", "event_sort_key"],
    "sequence": ["TaskSequence"],
    "task": ["Task"],
    "transforms": [
        "filter_tasks",
        "scale_sizes",
        "scale_time",
        "subsample",
        "superpose",
        "truncate_tasks",
    ],
})

__all__ = [
    "Task",
    "Arrival",
    "Departure",
    "Event",
    "EventKind",
    "event_sort_key",
    "TaskSequence",
    "SequenceBuilder",
    "figure1_sequence",
    "scale_time",
    "scale_sizes",
    "filter_tasks",
    "subsample",
    "superpose",
    "truncate_tasks",
]
