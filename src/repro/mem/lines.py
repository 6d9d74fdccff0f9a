"""Cache line records and MOSI states.

Each line carries, in addition to the usual MOSI coherence state and dirty
bit, the *coherent* bit the paper adds for MMM-TP (Section 3.4.3): a mute
core's cache can simultaneously hold lines fetched incoherently through
Reunion's best-effort path and lines holding VCPU state that were fetched
coherently during a mode switch.  The Leave-DMR flush inspects that bit to
decide whether a dirty line must be written back or simply discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class LineState(Enum):
    """MOSI coherence states (plus INVALID for empty ways)."""

    MODIFIED = auto()
    OWNED = auto()
    SHARED = auto()
    INVALID = auto()


@dataclass(slots=True)
class CacheLine:
    """One cache line's bookkeeping state.

    Attributes
    ----------
    line_addr:
        Line-aligned physical address.
    state:
        MOSI state of the line in this cache.
    dirty:
        True when the line holds data newer than the next level.
    coherent:
        False when the line was brought in through a Reunion mute core's
        incoherent request path and therefore must not be written back.
    last_touch:
        Monotonic counter used for LRU replacement inside a set.
    """

    line_addr: int
    state: LineState = LineState.SHARED
    dirty: bool = False
    coherent: bool = True
    last_touch: int = 0

    @property
    def valid(self) -> bool:
        """True when the line holds data."""
        return self.state is not LineState.INVALID

    @property
    def needs_writeback(self) -> bool:
        """True when evicting or flushing this line must write it back.

        Incoherent (mute-fetched) lines are never written back -- Reunion's
        mute core must not expose values outside its private hierarchy.
        """
        return self.dirty and self.coherent and self.valid
