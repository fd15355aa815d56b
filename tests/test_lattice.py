"""Cross-engine battery: the downset lattice against the brute-force
world classes of ``oracles.brute_worlds``, and its backward pass against
the reference kept per state and final fragment size
(``oracles.split_backward``).

Every answer is compared with ``==`` as exact fractions.  The exact
engine's public folds (``volume_exact``, ``interpolate_all``,
``marginal_exact``) and top-k answer from the lattice; the reference side
is summed here over the oracle's classes (fragment volumes, means and
``oracles.beta_rescaled_coeffs`` densities), independent of the
library's tallies.  The oracle handles tie-free documents, so tied ones
are checked on their tie-free rewriting (``oracles.merge_ties``).
"""
import random
from fractions import Fraction

import gen
import oracles
from ordpoly import (
    PersistentTieError,
    PiecewisePolynomial,
    Polynomial,
    check_containment,
    global_topk,
    interpolate_all,
    marginal_exact,
    u_sequence_probabilities,
    volume_exact,
)
from ordpoly import lattice
from ordpoly.model import Prepared


def pinned_doc(rng: random.Random, unknowns: int = 6, most_pins: int = 3) -> gen.Doc:
    """A random DAG with up to ``unknowns`` unknowns and ``most_pins`` pins,
    sometimes moving the lowest pin to 0 and the highest to 1 (both stay
    consistent with the DAG)."""
    names, order, pins = gen.mixed_doc(rng, rng.randint(1, unknowns), rng.randint(0, most_pins))
    if pins and rng.random() < 0.4:
        pins[min(pins, key=pins.get)] = Fraction(0)
    if len(pins) > 1 and rng.random() < 0.4:
        pins[max(pins, key=pins.get)] = Fraction(1)
    return names, order, pins


def has_user_ties(cs) -> bool:
    try:
        Prepared(cs).reject_user_ties()
    except PersistentTieError:
        return True
    return False


def tie_free(doc: gen.Doc):
    """``oracles.merge_ties`` on ``doc`` with the edges that a pin at 0 or
    1 implies made explicit, so that every tie is a cycle of the order."""
    names, order, exact = doc
    implied = [(p, x) for p, v in exact.items() if v == 0 for x in names]
    implied += [(x, p) for p, v in exact.items() if v == 1 for x in names]
    return oracles.merge_ties(names, [*order, *implied], exact)


def enumerated_answers(doc: gen.Doc):
    """Volume, and each unknown's expected value and marginal, summed over
    the oracle's world classes of the tie-free ``doc``."""
    volume, means = oracles.brute_volume_and_means(*doc)
    breakpoints = sorted({Fraction(0), Fraction(1), *doc[2].values()})
    pieces: dict = {}
    for _, vol, places in oracles.brute_worlds(*doc):
        for name, ((a, b), rank, size) in places.items():
            density = Polynomial.of(oracles.beta_rescaled_coeffs(rank, size, a, b))
            own = pieces.setdefault(name, {})
            j = breakpoints.index(a)
            own[j] = own.get(j, Polynomial()) + density * (vol / volume)
    marginals = {
        name: PiecewisePolynomial(
            tuple(breakpoints),
            tuple(own.get(j, Polynomial()) for j in range(len(breakpoints) - 1)),
        ).canonical()
        for name, own in pieces.items()
    }
    return volume, means, marginals


def test_values_and_marginals_match_enumeration():
    rng = random.Random(2016)
    docs = [pinned_doc(rng) for _ in range(50)]
    docs += [gen.tied_doc(rng, rng.randint(2, 6), rng.randint(1, 2)) for _ in range(15)]
    tied = 0
    for doc in docs:
        cs = gen.to_cs(doc)
        values = interpolate_all(cs)
        if has_user_ties(cs):
            tied += 1
            names, order, exact, rep = tie_free(doc)
            _, means, marginals = enumerated_answers((names, order, exact))
            assert values == {x: exact.get(rep[x], means.get(rep[x])) for x in values}, doc
            for x in values:
                if rep[x] in marginals:
                    assert marginal_exact(cs, x) == marginals[rep[x]], (doc, x)
            continue
        volume, means, marginals = enumerated_answers(doc)
        assert volume == volume_exact(cs), doc
        assert values == means, doc
        for name, pw in marginals.items():
            assert marginal_exact(cs, name) == pw, (doc, name)
    assert tied >= 10


def enumerated_topk(doc: gen.Doc, sel):
    """Sequence and rank volumes over the oracle's world classes,
    descending."""
    sequences, ranks = {}, {}
    for ascending, vol, _ in oracles.brute_worlds(*doc):
        top = tuple(name for name in reversed(ascending) if name in sel)
        sequences[top] = sequences.get(top, 0) + vol
        for r, name in enumerate(top, start=1):
            ranks[name, r] = ranks.get((name, r), 0) + vol
    return sequences, ranks, sum(sequences.values())


def first_break(answers):
    """(k, shorter, longer) where the k-answer stops being a prefix."""
    for k in range(1, len(answers)):
        if answers[k][:k] != answers[k - 1]:
            return k, answers[k - 1], answers[k]
    return None, answers[-2], answers[-1]


def test_topk_matches_enumeration():
    rng = random.Random(2006)
    for _ in range(40):
        names, order, pins = pinned_doc(rng)
        cs = gen.to_cs((names, order, pins))
        if has_user_ties(cs):
            continue  # u and global top-k refuse persistent ties
        sel = sorted(rng.sample(names, rng.randint(1, len(names))))
        sequences, ranks, volume = enumerated_topk((names, order, pins), sel)
        u_answers, global_answers = [], []
        for k in range(1, len(sel) + 1):
            heads = {}
            for top, vol in sequences.items():
                heads[top[:k]] = heads.get(top[:k], 0) + vol
            probs = {top: vol / volume for top, vol in heads.items()}
            assert u_sequence_probabilities(cs, sel, k) == probs, (names, order, pins, k)
            u_answers.append(min(probs, key=lambda s: (-probs[s], s)))
            inclusion = {
                name: sum(ranks.get((name, r), 0) for r in range(1, k + 1)) / volume
                for name in sel
            }
            ranked = sorted(inclusion.items(), key=lambda item: (-item[1], item[0]))
            got = global_topk(cs, sel, k)
            assert [(v.name, p) for v, p in got.entries] == ranked[:k], (names, order, k)
            global_answers.append(tuple(name for name, _ in ranked[:k]))
        if len(sel) < 2:
            continue
        for semantics, answers in (("u", u_answers), ("global", global_answers)):
            report = check_containment(cs, sel, semantics)
            violated_at, shorter, longer = first_break(answers)
            assert (report.holds, report.violated_at) == (violated_at is None, violated_at)
            assert (report.shorter, report.longer) == (shorter, longer)


def test_backward_pass_matches_the_split_reference():
    """One row per downset gives the buckets and rank tallies of the
    backward table split per state (D, k) by final fragment size, with
    random tracked unknowns and selections that include pins."""
    rng = random.Random(1104)
    parts = pinned = 0
    for _ in range(200):
        doc = pinned_doc(rng, unknowns=10, most_pins=4)
        for skel in Prepared(gen.to_cs(doc)).decomposition.skeletons:
            prep = skel.prep
            levels = list(lattice._levels(prep, 10**9))
            track = [u for u in prep.unknown_ids if rng.random() < 0.5]
            selected = sum(1 << v for v in range(prep.size) if rng.random() < 0.4)
            got = lattice._backward(prep, levels, track, selected)
            assert got == oracles.split_backward(prep, levels, track, selected), (doc, track)
            parts += 1
            pinned += bool(selected & prep.pins)
    assert parts >= 300 and pinned >= 100, (parts, pinned)
