"""Tests for the theorem-level decision procedures and the family scanner."""

import dataclasses
import math
import sys
from fractions import Fraction as F

import pytest

from reeslab import cohomology, decision, geometry
from reeslab.algebra import context_for
from reeslab.decision import (
    FG_EXACT,
    FG_WITNESS,
    NO_WITNESS_UP_TO_BOUNDS,
    NOT_FG_EXACT,
    SearchBounds,
    d_set,
    decide,
    factorize_integer,
    family_triangle,
    reference_example_suite,
    scan_family,
)
from reeslab.errors import InconsistencyError, RangeError, TheoremViolation
from reeslab.fields import FieldSpec
from reeslab.geometry import cone_tables, normalize_triangle, period_data

WORKED = [(F(-5, 6), F(5, 12)), (F(1, 6), F(-1, 12)), (0, 1)]


def test_family_triangle_formula():
    tri = family_triangle(F(13, 6))
    assert (tri.x1, tri.x2) == (F(1, 6), F(-5, 6))
    assert tri.ubar == F(-1, 2)
    with pytest.raises(RangeError):
        family_triangle(F(7, 2))
    with pytest.raises(RangeError):
        family_triangle(F(1))


def test_family_triangle_refuses_a_float():
    # 2.1 read as its binary fraction would give sigma = 2^52, and a char-p
    # search on it windows 2^52 levels long; only period_data is run here.
    with pytest.raises(RangeError, match=r"2\.1"):
        period_data(family_triangle(2.1))
    with pytest.raises(RangeError, match=r"2\.5"):
        period_data(family_triangle(2.5))
    assert period_data(family_triangle("21/10")).sigma == 20


@pytest.mark.parametrize("g", ["abc", 1j])
def test_family_triangle_refuses_a_parameter_that_is_no_rational_number(g):
    # Fraction raises ValueError on "abc" and TypeError on 1j; either would
    # escape as no InputError (exit code 2).
    with pytest.raises(RangeError, match="is not an exact rational number"):
        family_triangle(g)


def count_calls(monkeypatch, name, module=geometry):
    """Wrap module.<name> under every module name that holds it, like the
    benchmark tracer, so that a call from any layer is counted."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("reeslab") and \
                vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_decide_char0_runs_emu_check_once(monkeypatch):
    # The cross-check reuses decide's EmuReport, cone tables and period data.
    calls = count_calls(monkeypatch, "emu_check")
    for tri in (normalize_triangle(WORKED), family_triangle(F(5, 2))):
        calls.clear()
        decide(tri, FieldSpec(0))
        assert len(calls) == 1


def test_decide_char0_builds_cone_tables_once(monkeypatch):
    # emu_check and the cross-check both read the tables decide builds.
    calls = count_calls(monkeypatch, "cone_tables")
    for tri in (normalize_triangle(WORKED), family_triangle(F(5, 2))):
        calls.clear()
        decide(tri, FieldSpec(0))
        assert len(calls) == 1


def test_decide_char0_runs_one_m1_factorization_search(monkeypatch):
    # decide is the one place that compares the two char-0 criteria: one
    # search at m = 1 per call, whatever the verdict, and a disagreement
    # (the g = 3 endpoint) raises with the message the benchmark digests hold.
    calls = count_calls(monkeypatch, "factorization_search", cohomology)
    for g in (F(9, 4), F(5, 2), 2, 3):
        calls.clear()
        if g == 3:
            with pytest.raises(TheoremViolation) as exc:
                decide(family_triangle(g), FieldSpec(0))
            assert str(exc.value) == (
                "unit factorization (True) disagrees with the column-count "
                "criterion (False) for ubar=-1/2, x1=1, x2=0")
        else:
            decide(family_triangle(g), FieldSpec(0))
        assert [args[3] for args in calls] == [1], f"g={g}"


def test_decide_char0_worked_example():
    v = decide(normalize_triangle(WORKED), FieldSpec(0))
    assert v.status == NOT_FG_EXACT
    assert v.finitely_generated is False
    assert v.emu == {"holds": False, "column_counts": [1, 1], "sorted_counts": [1, 1]}


def test_decide_char2_witness():
    v = decide(normalize_triangle(WORKED), FieldSpec(2))
    assert v.status == FG_WITNESS
    assert v.witness == {"kind": "A4", "m": 2}
    assert len(v.probes) == 2  # m=1 fails, m=2 succeeds


def test_decide_char3_witness():
    v = decide(normalize_triangle(WORKED), FieldSpec(3))
    assert v.status == FG_WITNESS
    assert v.witness == {"kind": "A4", "m": 3}


def test_decide_char5_bounded_negative():
    bounds = SearchBounds(r_max=1, j_max=4, m_max=6)
    v = decide(normalize_triangle(WORKED), FieldSpec(5), bounds)
    assert v.status == NO_WITNESS_UP_TO_BOUNDS
    assert v.finitely_generated is None
    cohom = [p for p in v.probes if "h0" in p]
    assert len(cohom) == 8  # (r, j) in {0,1} x {1,2,3,4}
    assert all(p["h0"] == 0 for p in cohom)
    searches = [p for p in v.probes if p.get("kind") == "A4"]
    assert len(searches) == 6 and not any(p["success"] for p in searches)


def test_decide_probes_its_windows_through_d_set():
    # After the one factorization probe, decide's window probes are the
    # d_set reports of every (r, j), in order.
    tri = normalize_triangle(WORKED)
    v = decide(tri, FieldSpec(5), SearchBounds(m_max=1))
    ctx, ct, pd = context_for(tri, FieldSpec(5)), cone_tables(tri), period_data(tri)
    assert v.probes[0]["kind"] == "A4"
    assert v.probes[1:] == [d_set(ctx, ct, pd, r, j).to_dict()
                            for r in (0, 1) for j in (1, 2, 3, 4)]


# A width-1 triangle whose first sections appear in the window (r, j) = (1, 1)
# at p = 7: decide's witness is C4, found by d_set.
C4_TRIANGLE = [(F(-1, 5), F(1, 10)), (F(4, 5), F(-2, 5)), (0, 1)]


def count_windows(monkeypatch, tamper=None):
    """Record (m, l, policy) of every cohomology_dims call d_set makes;
    tamper(report) replaces the report of each policy-B call."""
    original = decision.cohomology_dims
    calls = []

    def counting(ctx, ct, pd, m, l, policy="A"):
        calls.append((m, l, policy))
        rep = original(ctx, ct, pd, m, l, policy=policy)
        return tamper(rep) if tamper and policy == "B" else rep

    monkeypatch.setattr(decision, "cohomology_dims", counting)
    return calls


def test_decide_rechecks_only_the_witness_window(monkeypatch):
    calls = count_windows(monkeypatch)
    v = decide(normalize_triangle(C4_TRIANGLE), FieldSpec(7))
    assert v.witness == {"kind": "C4", "r": 1, "j": 1, "h0": 1}
    windows = [(p["m"], p["l"]) for p in v.probes if "h0" in p]
    assert windows[-1] == (70, 140)
    assert [c[:2] for c in calls] == windows + [(70, 140)]
    assert [c[2] for c in calls] == ["A"] * len(windows) + ["B"]


def test_d_set_raises_when_the_recheck_disagrees(monkeypatch):
    count_windows(monkeypatch, tamper=lambda rep: dataclasses.replace(rep, h0=rep.h0 + 1))
    tri = normalize_triangle(C4_TRIANGLE)
    ctx, ct, pd = context_for(tri, FieldSpec(7)), cone_tables(tri), period_data(tri)
    with pytest.raises(InconsistencyError, match="re-check"):
        d_set(ctx, ct, pd, 1, 1)
    # A window without sections is not re-checked.
    assert d_set(ctx, ct, pd, 0, 1).h0 == 0


def test_decide_never_negative_in_char_p():
    for p in (2, 3, 5, 7):
        v = decide(normalize_triangle(WORKED), FieldSpec(p),
                   SearchBounds(r_max=0, j_max=1, m_max=3))
        assert v.status != NOT_FG_EXACT


def test_decide_narrow_width_char_p():
    tri = normalize_triangle([(F(-5, 6), F(5, 12)), (F(1, 12), F(-1, 24)), (0, 1)])
    assert tri.width == F(11, 12)
    v = decide(tri, FieldSpec(7))
    assert v.status == FG_EXACT
    assert v.witness["kind"] == "narrow-width"


def test_decide_char_p_on_generating_member():
    # An instance where the column-count criterion holds: the m=1
    # factorization certificate transfers to every characteristic.
    tri = family_triangle(F(5, 2))
    for p in (2, 5, 13):
        v = decide(tri, FieldSpec(p))
        assert v.status == FG_WITNESS
        assert v.witness == {"kind": "A4", "m": 1}


def test_scan_family_char0_interior():
    gs = [F(9, 4), F(13, 6), F(7, 3), F(12, 5), F(5, 2), F(8, 3), F(11, 4)]
    rows = scan_family(gs, FieldSpec(0))
    got = {row.g: row.status for row in rows}
    assert got == {
        F(9, 4): NOT_FG_EXACT,
        F(13, 6): NOT_FG_EXACT,
        F(7, 3): FG_EXACT,
        F(12, 5): FG_EXACT,
        F(5, 2): FG_EXACT,
        F(8, 3): FG_EXACT,
        F(11, 4): NOT_FG_EXACT,
    }


def test_scan_family_endpoints_behavior():
    # Both family endpoints have a vertical triangle edge.  At g=2 the two
    # characteristic-0 criteria agree (both succeed); at g=3 they genuinely
    # disagree, which the scanner surfaces as an error row.
    rows = scan_family([F(2), F(3)], FieldSpec(0))
    assert rows[0].status == FG_EXACT
    assert rows[1].verdict is None and "TheoremViolation" in rows[1].error


def test_scan_family_char2_member():
    rows = scan_family([F(13, 6)], FieldSpec(2))
    assert rows[0].status == FG_WITNESS


def test_scan_family_rejects_out_of_range():
    with pytest.raises(RangeError):
        scan_family([F(3, 2)], FieldSpec(0))


def test_search_bounds_jmax_defaults():
    assert SearchBounds().resolve_j_max(5) == 4
    assert SearchBounds().resolve_j_max(2) == 1
    assert SearchBounds().resolve_j_max(0) == 1
    assert SearchBounds(j_max=9).resolve_j_max(5) == 9


@pytest.mark.parametrize("kwargs", [
    {"r_max": -1}, {"m_max": 0}, {"branch_budget": 0}, {"j_max": 0},
])
def test_search_bounds_rejects_out_of_range(kwargs):
    with pytest.raises(RangeError):
        SearchBounds(**kwargs)


def test_factorize_integer():
    assert factorize_integer(1) == {}
    assert factorize_integer(101757) == {3: 1, 107: 1, 317: 1}
    assert factorize_integer(250258653) == {3: 5, 23: 1, 44777: 1}
    assert factorize_integer(44777) == {44777: 1}
    assert factorize_integer(2**10) == {2: 10}


def test_field_spec_accepts_exactly_the_primes():
    # FieldSpec reads a prime through factorize_integer, the package's one
    # trial division; a sieve written here is the independent oracle.
    limit = 2000
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, limit, d))
    for p in range(-3, limit):
        if p > 0 and sieve[p]:
            assert FieldSpec(p).characteristic == p
        elif p:
            with pytest.raises(RangeError, match=f"must be 0 or a prime, got {p}$"):
                FieldSpec(p)


@pytest.mark.parametrize("n", [0, -12])
def test_factorize_integer_refuses_a_nonpositive_integer(n):
    # A bare ValueError would be no InputError (exit code 2, a bug).
    with pytest.raises(RangeError, match=f"got {n}"):
        factorize_integer(n)


def test_reference_example_suite_passes():
    items = reference_example_suite()
    assert [i.name.split(":")[0] for i in items] == list("abcdefgh")
    failing = [i for i in items if not i.passed]
    assert not failing, failing
