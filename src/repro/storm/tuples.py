"""Tuples as they travel through the mini-Storm engine.

Mirrors Storm's model: a tuple is a named list of values emitted on a
stream by a component task; tuples emitted by spouts with a message id
are *anchored* and tracked by the acker until every descendant is acked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Storm's name for a plain list of field values
Values = list


@dataclass(slots=True)
class StormTuple:
    """One tuple instance flowing between tasks.

    Parameters
    ----------
    values:
        The field values, positionally matching the emitting component's
        declared output fields.
    fields:
        Output field names of the emitting component.
    source_component, source_task:
        Provenance of the emission.
    root_id:
        Message id of the spout tuple this descends from (``None`` for
        unanchored tuples).
    ack_id:
        Random 64-bit value XOR-ed into the acker's state for this edge
        of the tuple tree.
    sync_request:
        POSG piggy-back slot (Figure 1.D): control payload riding on a
        data tuple.
    handled:
        Not a constructor argument: whether the receiving bolt already
        acked or failed this tuple, set by its collector.
    """

    values: Values
    fields: tuple[str, ...]
    source_component: str
    source_task: int
    root_id: Any = None
    ack_id: int = 0
    sync_request: Any = None
    handled: bool = field(default=False, init=False)

    def value(self, field_name: str) -> Any:
        """Value of a named field (Storm's ``getValueByField``)."""
        try:
            index = self.fields.index(field_name)
        except ValueError:
            raise KeyError(
                f"tuple from {self.source_component} has no field "
                f"{field_name!r}; fields are {self.fields}"
            ) from None
        return self.values[index]

    def select(self, field_names: tuple[str, ...]) -> tuple:
        """Values of several named fields, for fields grouping."""
        return tuple(self.value(name) for name in field_names)

    @property
    def anchored(self) -> bool:
        """Whether this tuple participates in ack tracking."""
        return self.root_id is not None
