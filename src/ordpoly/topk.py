"""Exact top-k evaluation under three semantics, plus containment checks.

Given a selection of variables, "which k are on top?" has no single
answer when values are only partially known.  Three semantics are
implemented, all exact:

* local:  rank variables by their interpolated (expected) values and
  return the k best.
* u:      treat each admissible world as inducing a descending value
  sequence over the selected variables; return the length-k sequence
  with the highest probability.
* global: per variable, compute the probability that it ranks among the
  k highest selected values; return the k most probable variables.

Within one linear extension's simplex fragment product the coordinate
order is almost surely the extension order, so every extension gives
its exact volume to one induced sequence and one rank per selected
variable.  The u and global semantics sum those volumes over the lattice
of downsets (``lattice``) of the parts that hold a selected variable,
instead of enumerating extensions; a budget error from it carries a hint
to ``estimate_topk``.  The semantics
genuinely disagree, and only the local one satisfies the containment
property (each answer a strict prefix of the next longer one);
``check_containment`` tests that property for any semantics.

Local top-k asks for per-variable values, so like interpolation it
answers on the tie quotient (tied variables share their class's value);
u and global top-k ask about the order of the selected variables and
refuse persistent user ties.

Every entry point takes a ``ConstraintSet`` or the request's
``model.Prepared``; a set is prepared once, on entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    LimitExceededError,
    MalformedInputError,
)
from .model import VALUES, ConstraintSet, Prepared, VariableId

if TYPE_CHECKING:  # the lattice's module loads only for u/global top-k
    from .lattice import _Prep

__all__ = [
    "SEMANTICS_LOCAL",
    "SEMANTICS_U",
    "SEMANTICS_GLOBAL",
    "SelectionPredicate",
    "TopKResult",
    "ContainmentReport",
    "select",
    "local_topk",
    "u_topk",
    "u_sequence_probabilities",
    "global_topk",
    "check_containment",
]

SEMANTICS_LOCAL = "local"
SEMANTICS_U = "u"
SEMANTICS_GLOBAL = "global"

_SEQUENCE_TABLE_LIMIT = 1_000_000


@dataclass(frozen=True)
class SelectionPredicate:
    """The set of variables competing for the top (𝒳_σ)."""

    selected: frozenset[VariableId]

    def __post_init__(self) -> None:
        if not self.selected:
            raise MalformedInputError("selection must not be empty")

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(v.name for v in self.selected))


def select(cs: ConstraintSet, names: Iterable[str]) -> SelectionPredicate:
    """Build a selection over ``cs`` from variable names."""
    return SelectionPredicate(frozenset(cs.resolve(n) for n in names))


@dataclass(frozen=True)
class TopKResult:
    """Ordered answer entries under one semantics.

    The annotation is the expected value (local), the probability of the
    whole returned sequence (u; every entry carries the same number), or
    the per-variable probability of ranking in the top k (global).
    """

    semantics: str
    k: int
    entries: tuple[tuple[VariableId, Fraction], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v, _ in self.entries)


@dataclass(frozen=True)
class ContainmentReport:
    """Whether answers grow by strict prefix as k increases.

    When they do not, ``violated_at`` is the first k where the k-answer
    is not a prefix of the (k+1)-answer, and the two lists are recorded.
    """

    semantics: str
    holds: bool
    violated_at: int | None
    shorter: tuple[str, ...]
    longer: tuple[str, ...]


def _selection_vars(
    cs: ConstraintSet | Prepared, sel: SelectionPredicate | Iterable[str]
) -> tuple[Prepared, list[VariableId]]:
    """The pipeline of ``cs`` and the selected variables, sorted by name."""
    prepared = Prepared.of(cs)
    if not isinstance(sel, SelectionPredicate):
        sel = select(prepared.source, sel)
    out = []
    for v in sorted(sel.selected, key=lambda v: v.name):
        resolved = prepared.source.resolve(v.name)
        if resolved != v:
            raise MalformedInputError(
                f"selected variable {v.name!r} does not belong to this constraint set"
            )
        out.append(resolved)
    return prepared, out


def _require_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise MalformedInputError(f"k must be a positive integer, got {k!r}")


def _with_estimate_hint(err: BudgetExceededError) -> BudgetExceededError:
    out = BudgetExceededError(err.budget, err.lower_bound)
    out.args = (
        f"{err.args[0]}; estimate_topk computes a sampled answer without "
        "enumerating extensions",
    )
    return out


# ---------------------------------------------------------------------------
# local semantics: ranked expected values


def local_topk(
    cs: ConstraintSet | Prepared,
    sel: SelectionPredicate | Iterable[str],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> TopKResult:
    """The k selected variables with the highest expected values; tied
    variables share their tie class's value."""
    from .tree import solve  # loaded by local top-k alone, as the lattice by u/global

    _require_k(k)
    prepared, chosen = _selection_vars(cs, sel)
    try:
        values = solve(prepared, VALUES, [v.name for v in chosen], budget)
    except BudgetExceededError as err:
        raise _with_estimate_hint(err) from None
    ranked = sorted(chosen, key=lambda v: (-values[v.name], v.name))
    entries = tuple((v, values[v.name]) for v in ranked[:k])
    return TopKResult(SEMANTICS_LOCAL, k, entries)


# ---------------------------------------------------------------------------
# u and global semantics: one pass over the downset lattice


def _lattice(
    prepared: Prepared, chosen: Sequence[VariableId]
) -> tuple[_Prep, list[int], list[VariableId]]:
    """The lattice form of the parts that hold a ``chosen`` variable (their
    classes plus every pin; persistent user ties refused), the ids of the
    chosen in it and the tie quotient's variable of each of its ids.  Given
    the pins, the other parts are independent of the chosen.  One part
    short of the whole quotient walks its own form, and errors name it."""
    from .lattice import _prepare  # first use, as in tree.solve_part
    from .model import _project

    prepared.reject_user_ties()
    quotient = prepared.ties.quotient
    d = prepared.decomposition
    targets = [prepared.target(v) for v in chosen]
    held = sorted({d.part_index[t.name] for t in targets if t.name in d.part_index})
    ids = sorted({*quotient.exact_values, *(v.id for no in held for v in d.classes[no])})
    if len(held) == 1 and len(ids) < len(quotient.variables):
        prep = d.skeletons[held[0]].prep
    else:
        inside = set(ids) - quotient.exact_values.keys()
        covers = [(a, b) for a, b in prepared.covers if a in inside or b in inside]
        prep = _prepare(_project(quotient, ids, covers))
    index = {old: new for new, old in enumerate(ids)}
    return prep, [index[t.id] for t in targets], [quotient.variables[i] for i in ids]


def _sequences(
    prepared: Prepared, chosen: Sequence[VariableId], top: int, budget: int
) -> tuple[Fraction, dict[tuple[VariableId, ...], Fraction]]:
    """The volume and the volume of every descending sequence of the
    ``top`` highest selected variables."""
    from .lattice import sequence_tally

    prep, ids, variables = _lattice(prepared, chosen)
    try:
        volume, sequences = sequence_tally(prep, ids, top, budget)
    except BudgetExceededError as err:
        raise _with_estimate_hint(err) from None
    if len(sequences) > _SEQUENCE_TABLE_LIMIT:
        raise LimitExceededError(
            f"more than {_SEQUENCE_TABLE_LIMIT} distinct top-k "
            "sequences; lower k or use estimate_topk"
        )
    return volume, {tuple(variables[i] for i in seq): x for seq, x in sequences.items()}


def _sequence_argmax(
    sequences: dict[tuple[VariableId, ...], Fraction], volume: Fraction
) -> tuple[tuple[VariableId, ...], Fraction]:
    best_seq = min(sequences, key=lambda s: (-sequences[s], [v.name for v in s]))
    return best_seq, sequences[best_seq] / volume


def u_topk(
    cs: ConstraintSet | Prepared,
    sel: SelectionPredicate | Iterable[str],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> TopKResult:
    """The most probable descending length-k sequence of selected variables."""
    _require_k(k)
    prepared, chosen = _selection_vars(cs, sel)
    volume, sequences = _sequences(prepared, chosen, min(k, len(chosen)), budget)
    seq, prob = _sequence_argmax(sequences, volume)
    entries = tuple((v, prob) for v in seq)
    return TopKResult(SEMANTICS_U, k, entries)


def u_sequence_probabilities(
    cs: ConstraintSet | Prepared,
    sel: SelectionPredicate | Iterable[str],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[str, ...], Fraction]:
    """Probability of every possible descending length-k sequence.

    The returned probabilities sum to 1; ``u_topk`` answers with the
    argmax of this table (ties broken toward the lexicographically
    smallest name sequence).
    """
    _require_k(k)
    prepared, chosen = _selection_vars(cs, sel)
    volume, sequences = _sequences(prepared, chosen, min(k, len(chosen)), budget)
    return {
        tuple(v.name for v in seq): vol / volume
        for seq, vol in sequences.items()
    }


def _global_rankings(
    prepared: Prepared, chosen: Sequence[VariableId], budget: int
) -> list[list[tuple[VariableId, Fraction]]]:
    """For k = 1 .. len(chosen), the chosen variables with their
    probability of ranking among the k highest, most probable first."""
    from .lattice import rank_tally

    prep, ids, _ = _lattice(prepared, chosen)
    try:
        volume, ranks = rank_tally(prep, ids, budget)
    except BudgetExceededError as err:
        raise _with_estimate_hint(err) from None
    rankings = []
    for k in range(1, len(chosen) + 1):
        scored = [
            (v, sum((x for r, x in ranks[i].items() if r <= k), Fraction(0)) / volume)
            for v, i in zip(chosen, ids)
        ]
        rankings.append(sorted(scored, key=lambda pair: (-pair[1], pair[0].name)))
    return rankings


def global_topk(
    cs: ConstraintSet | Prepared,
    sel: SelectionPredicate | Iterable[str],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> TopKResult:
    """The k selected variables most likely to rank among the k highest."""
    _require_k(k)
    prepared, chosen = _selection_vars(cs, sel)
    scored = _global_rankings(prepared, chosen, budget)[min(k, len(chosen)) - 1]
    return TopKResult(SEMANTICS_GLOBAL, k, tuple(scored[:k]))


# ---------------------------------------------------------------------------
# containment


def check_containment(
    cs: ConstraintSet | Prepared,
    sel: SelectionPredicate | Iterable[str],
    semantics: str,
    budget: int = DEFAULT_BUDGET,
) -> ContainmentReport:
    """Test that the k-answer is a strict prefix of the (k+1)-answer for
    every k up to |selection| - 1."""
    prepared, chosen = _selection_vars(cs, sel)
    m = len(chosen)
    if m < 2:
        return ContainmentReport(semantics, True, None, (), ())
    if semantics == SEMANTICS_LOCAL:
        full = local_topk(prepared, chosen, m, budget)
        answers = [full.names()[:k] for k in range(1, m + 1)]
    elif semantics == SEMANTICS_U:
        volume, sequences = _sequences(prepared, chosen, m, budget)
        answers = []
        for k in range(1, m + 1):
            grouped: dict[tuple[VariableId, ...], Fraction] = {}
            for seq, vol in sequences.items():
                head = seq[:k]
                grouped[head] = grouped.get(head, Fraction(0)) + vol
            seq_vars, _ = _sequence_argmax(grouped, volume)
            answers.append(tuple(v.name for v in seq_vars))
    elif semantics == SEMANTICS_GLOBAL:
        rankings = enumerate(_global_rankings(prepared, chosen, budget), start=1)
        answers = [tuple(v.name for v, _ in scored[:k]) for k, scored in rankings]
    else:
        raise MalformedInputError(
            f"unknown semantics {semantics!r}; expected one of "
            f"{SEMANTICS_LOCAL!r}, {SEMANTICS_U!r}, {SEMANTICS_GLOBAL!r}"
        )
    for k in range(1, m):
        if answers[k][: k] != answers[k - 1]:
            return ContainmentReport(
                semantics, False, k, answers[k - 1], answers[k]
            )
    return ContainmentReport(semantics, True, None, answers[m - 2], answers[m - 1])
