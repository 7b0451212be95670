"""The verdict vocabulary: each word a report writes in a verdict column,
defined once.

A bound row reads holds, violated or inconclusive; the refuter reads violated
or no-violation-found, on f in ``membership.csv`` and on a bound's hypothesis
|d2f|^q in ``hunt.csv``; any of them is skipped where the cell's m-scaled
corners leave the domain.  ``VERDICTS`` maps each word to the report columns,
``<file>.<column>``, that it may fill.
"""

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
NO_VIOLATION = "no-violation-found"
SKIPPED = "skipped"

_BOUND, _REFUTER = ("bounds.verdict", "hunt.verdict"), ("hunt.hypothesis", "membership.verdict")
VERDICTS = {
    HOLDS: _BOUND,
    VIOLATED: _BOUND + _REFUTER,
    INCONCLUSIVE: _BOUND,
    NO_VIOLATION: _REFUTER,
    SKIPPED: _BOUND + _REFUTER,
}
