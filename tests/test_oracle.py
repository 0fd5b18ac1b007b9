import itertools
import random
from functools import lru_cache, partial
from math import factorial

import pytest

import numpy as np
from oracle_ref import (
    alternating_orders_loop,
    class_labels_whole_array,
    conjugation_map_searchsorted,
    cycle_length_mask_loop,
    cycle_length_masks_gather,
    element_order_by_exponent,
    element_order_mod_center,
    exhaustive_orders_mod_center,
    identity_matrix,
    inversion_count,
    is_special_unitary,
    is_symplectic4,
    least_coset_keys,
    mat_mul,
    matrix_power,
    omega_alternating,
    polynomial_field,
    prime_support,
    row_table_batch_mul,
    scalar_closure,
    scalars_in,
)

from gkod import oracle
from gkod.arith import primes_upto
from gkod.catalog import GroupId, order_terms, order_value, parse_label
from gkod.oracle import (
    DEFAULT_SEED,
    ClosureError,
    FormViolationError,
    MAX_CLOSURE,
    ORACLE_TARGETS,
    MatrixGroup,
    _MATRIX_TARGETS,
    _bits_for,
    _center_tables,
    _close_once,
    _conjugation_map,
    _cycle_length_masks,
    _even_odd_permutations,
    _least_coset_key,
    _pack,
    _row_table,
    _unpack,
    alternating_orders_bruteforce,
    alternating_spectrum_bruteforce,
    closure,
    conjugacy_classes,
    form_center,
    is_isometry,
    make_field,
    mat_det,
    matrix_group,
    random_isometry,
    run_target,
    sl2_group,
    spectrum_mod_center,
    su_group,
)
from gkod.spectra import (
    Spectrum,
    mu_L2,
    mu_S4,
    mu_U3,
    mu_alternating,
    spectrum_of,
)


# ---------------------------------------------------------------------------
# fields

def test_f4_polynomial():
    F = make_field(2, 2)
    assert F.poly == (1, 1, 1)  # x^2 + x + 1, the unique choice


def test_f27_generator_order():
    F = make_field(3, 3)

    def order(a):
        return min(e for e in range(1, 27) if F.pow(a, e) == 1)

    assert order(F.generator) == 26
    orders = {order(a) for a in range(1, 27)}
    assert max(orders) == 26 and all(26 % o == 0 for o in orders)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2), (5, 1), (7, 2), (3, 3)])
def test_field_axioms(p, k):
    F = make_field(p, k)
    q = F.q
    for a in range(1, q):
        assert F.pow(a, q - 1) == 1
        assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0
    # the Frobenius map a -> a^p is additive and multiplicative
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.randrange(q), rng.randrange(q)
        assert F.pow(F.mul(a, b), p) == F.mul(F.pow(a, p), F.pow(b, p))
        assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_field_bounds():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 7)
    with pytest.raises(ValueError):
        make_field(251, 3)
    with pytest.raises(ValueError):
        make_field(37, 2)  # q = 1369 > TABLE_LIMIT


def test_field_tables_match_polynomial_construction():
    pairs = [(p, k) for p in primes_upto(256) for k in range(1, 7)
             if p**k <= 256]
    for p, k in pairs + [(31, 2), (3, 6)]:
        F, R = make_field(p, k), polynomial_field(p, k)
        assert (F.poly, F.generator) == (R.poly, R.generator), (p, k)
        for name in ("_exp", "_log", "add_table", "mul_table", "neg_table"):
            got, want = getattr(F, name), getattr(R, name)
            assert got.dtype == want.dtype, (p, k, name)
            assert np.array_equal(got, want), (p, k, name)


# ---------------------------------------------------------------------------
# closures and spectra

def test_closure_sizes_small(oracle_runner):
    assert oracle_runner("SL2_5").enumerated == 120
    assert oracle_runner("SL2_7").enumerated == 336
    assert oracle_runner("SU3_3").enumerated == 6048


def test_spectrum_psl2_7(oracle_runner):
    assert oracle_runner("SL2_7").mu_oracle.mu == (3, 4, 7)


def test_spectrum_u3_3(oracle_runner):
    assert oracle_runner("SU3_3").mu_oracle.mu == (7, 8, 12)


@pytest.mark.parametrize("name", ["SL2_4", "SL2_5", "SL2_7", "SL2_9", "SL2_13"])
def test_formula_vs_oracle_l2(name, oracle_runner):
    res = oracle_runner(name)
    assert res.match, f"{name}: {res.mu_oracle} != {res.mu_formula}"
    q = int(name.split("_")[1])
    assert res.enumerated == q * (q * q - 1)
    assert res.mu_formula == mu_L2(q)


@pytest.mark.parametrize("name", ["SU3_3", "SU3_5"])
def test_formula_vs_oracle_u3(name, oracle_runner):
    res = oracle_runner(name)
    assert res.match
    q = int(name.split("_")[1])
    assert res.enumerated == q**3 * (q**2 - 1) * (q**3 + 1)
    assert res.mu_formula == mu_U3(q)


def test_formula_vs_oracle_u4_3(oracle_runner):
    res = oracle_runner("SU4_3")
    assert res.enumerated == 3**6 * (3**2 - 1) * (3**3 + 1) * (3**4 - 1)
    assert res.match
    assert res.mu_oracle.mu == (5, 7, 8, 9, 12)


def test_closure_deterministic_with_seed():
    a = sl2_group(7, seed=DEFAULT_SEED)
    b = sl2_group(7, seed=DEFAULT_SEED)
    assert a.order == b.order == 336
    assert a.generators == b.generators
    assert (a.elements == b.elements).all()


def _no_sample():
    """The sampler of a closure that must not resample."""
    pytest.fail("the closure asked for another generator")


def test_closure_overshoot_is_form_violation(monkeypatch):
    # the two transvections generate SL2(5); the determinant-2 matrix
    # escapes it, so the closure must blow past the 120 target, also when
    # each level is built in pieces of three keys
    F = make_field(5, 1)
    transvections = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    bad = ((2, 0), (0, 1))
    for chunk in (oracle._CHUNK, 3):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        with pytest.raises(FormViolationError):
            closure(transvections + [bad], 120, F, 2, _no_sample, (1,))


def test_closure_target_above_max_closure():
    with pytest.raises(ValueError):
        closure([], MAX_CLOSURE + 1, make_field(5, 1), 2, _no_sample, (1,))


def test_closure_undershoot_with_a_stalled_sampler():
    # every resample adds the same unipotent, so the closure stays at its
    # 5 elements through all MAX_RETRIES restarts; each of the
    # MAX_RETRIES + 1 closures that falls short draws one generator
    F = make_field(5, 1)
    unipotent = ((1, 1), (0, 1))
    drawn = []

    def sample():
        drawn.append(unipotent)
        return unipotent

    with pytest.raises(ClosureError):
        closure([unipotent], 120, F, 2, sample, (1,))
    assert len(drawn) == oracle.MAX_RETRIES + 1


def test_closure_needs_a_sampler_and_a_center():
    F = make_field(5, 1)
    transvections = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    with pytest.raises(TypeError):
        closure(transvections, 120, F, 2)
    with pytest.raises(TypeError):
        closure(transvections, 120, F, 2, _no_sample)


@pytest.mark.parametrize("name", sorted(_MATRIX_TARGETS))
def test_closure_certifies_catalog_order(name, default_group):
    """Each closure reaches |S| cosets of a centre of order d, for the
    simple group S and the d of the catalog's order terms, over the field
    and in the dimension _TARGET_SHAPES states for its name."""
    g, grp = _MATRIX_TARGETS[name], default_group(name)
    assert (grp.field.p, grp.field.k, grp.dim) == _TARGET_SHAPES[name]
    assert len(grp.center_scalars) == order_terms(g.family, g.n, g.q)[2]
    assert grp.elements.size == order_value(g)


@pytest.mark.parametrize("wrong", [lambda q, terms: terms + [q + 1],
                                   lambda q, terms: [q - 1]],
                         ids=["extra_term", "smaller_term"])
def test_closure_rejects_order_terms_off_by_one_term(wrong, monkeypatch):
    """SL_2(5) against order terms with one term too many never reaches
    its target; with q^2 - 1 replaced by q - 1, it grows past it."""
    def off(family, n, q):
        prefix, terms, d = order_terms(family, n, q)
        return prefix, wrong(q, terms), d

    monkeypatch.setattr(oracle, "order_terms", off)
    with pytest.raises((ClosureError, FormViolationError)):
        sl2_group(5)


def test_center_scalars():
    assert set(sl2_group(5).center_scalars) == {1, 4}   # +-identity
    assert set(su_group(3, 3).center_scalars) == {1}    # gcd(3, 4) = 1
    assert su_group(3, 2).center_scalars == (1, 2, 3)   # all of F_4^*
    F, gram, e, _ = _form_case("SU", 3, 2, 4)
    assert len(form_center(F, 4, gram, e)) == 4         # 4th roots of 1 in F_9
    F, omega, e, _ = _form_case("SP", 5, 1, 4)
    assert form_center(F, 4, omega, e) == (1, 4)        # +-identity


def test_element_order_paths_agree():
    grp = sl2_group(9)
    F = grp.field
    rng = random.Random(7)
    exponent = 720  # |SL2(9)|
    for _ in range(1000):
        M = random_isometry(F, 2, rng)
        naive = element_order_mod_center(F, M, grp.center_scalars)
        fast = element_order_by_exponent(F, M, exponent, grp.center_scalars)
        assert naive == fast


def test_matrix_power_matches_iteration():
    F = make_field(7, 1)
    rng = random.Random(3)
    for _ in range(20):
        M = random_isometry(F, 2, rng)
        P = identity_matrix(2)
        for e in range(1, 10):
            P = mat_mul(F, P, M)
            assert matrix_power(F, M, e) == P


def _form_case(kind, p, k, n):
    """Field, Gram matrix, sigma exponent and hand-coded reference check."""
    F = make_field(p, k)
    if kind == "SL":
        return F, None, 1, lambda M: mat_det(F, M) == 1
    if kind == "SU":
        return F, identity_matrix(n), p ** (k // 2), partial(is_special_unitary, F)
    m = F.neg(1)
    omega = ((0, 0, 1, 0), (0, 0, 0, 1), (m, 0, 0, 0), (0, m, 0, 0))
    return F, omega, 1, partial(is_symplectic4, F)


@pytest.mark.parametrize("kind,p,k,n", [
    ("SL", 2, 2, 2), ("SL", 5, 1, 2), ("SL", 3, 2, 2),
    ("SU", 3, 2, 3), ("SU", 5, 2, 3), ("SU", 3, 2, 4),
    ("SP", 3, 1, 4), ("SP", 5, 1, 4), ("SP", 7, 1, 4)])
def test_isometry_matches_hand_coded_checks(kind, p, k, n):
    F, gram, e, ref = _form_case(kind, p, k, n)
    rng = random.Random(p**k * n)
    for _ in range(200):
        M = random_isometry(F, n, rng, gram, e)
        assert is_isometry(F, M, gram, e) and ref(M), M
    # diag(g, 1, ...) for SL breaks det 1; diag(g, g^-1, 1, ...) keeps it
    # but moves B(c_0, c_0) (unitary) or B(c_0, c_2) (symplectic) off gram
    g = F.generator
    bad = [list(row) for row in identity_matrix(n)]
    bad[0][0] = g
    if gram is not None:
        bad[1][1] = F.inv(g)
    bad = tuple(map(tuple, bad))
    assert not is_isometry(F, bad, gram, e) and not ref(bad)


def test_sampled_non_isometry_is_form_violation(monkeypatch):
    monkeypatch.setattr("gkod.oracle.is_isometry", lambda *args: False)
    with pytest.raises(FormViolationError):
        sl2_group(5)


@pytest.mark.parametrize("g,ref", [
    (GroupId("L", n=2, q=9), lambda F, M: mat_det(F, M) == 1),
    (GroupId("U", n=3, q=3), is_special_unitary),
    (GroupId("S", n=4, q=3), is_symplectic4)], ids=["L2_9", "U3_3", "S4_3"])
def test_matrix_group_keeps_the_hand_coded_form(g, ref):
    """Generators, the sampled extra ones included, pass the reference
    check of their family, over F_q (F_{q^2} for U)."""
    grp = matrix_group(g)
    assert grp.field.q == g.q ** (2 if g.family == "U" else 1)
    assert all(ref(grp.field, M) for M in grp.generators)


def test_sp4_3_is_u4_2():
    """PSp4(3) = U4(2) (ATLAS): |Sp4(3)| = 51,840, centre +-1, and mu
    {5, 9, 12}."""
    grp = matrix_group(GroupId("S", n=4, q=3))
    assert grp.order == 51840 and grp.center_scalars == (1, 2)
    assert spectrum_mod_center(grp).mu == (5, 9, 12)


@pytest.mark.parametrize("build", [partial(matrix_group, GroupId("S", n=4, q=3)),
                                   partial(su_group, 3, 3),
                                   partial(sl2_group, 7), partial(su_group, 3, 2)],
                         ids=["SP4_3", "SU3_3", "SL2_7", "SU3_2"])
def test_elements_independent_of_seed(build):
    want = build(seed=DEFAULT_SEED).elements
    for seed in (1, 2):
        assert np.array_equal(build(seed=seed).elements, want), seed


_SMALL_GROUPS = {
    "SL2_4": lambda: sl2_group(4),
    "SL2_5": lambda: sl2_group(5),
    "SL2_7": lambda: sl2_group(7),
    "SL2_9": lambda: sl2_group(9),
    "SL2_13": lambda: sl2_group(13),
    "SU3_2": lambda: su_group(3, 2),
    "SU3_3": lambda: su_group(3, 3),
}


@lru_cache(maxsize=None)
def _reference(name):
    """The group, and every element of the linear group its generators
    span, closed by the scalar reference BFS."""
    grp = _SMALL_GROUPS[name]()
    return grp, scalar_closure(grp.field, grp.dim, grp.generators)


@pytest.mark.parametrize("name", sorted(_SMALL_GROUPS))
def test_class_scan_matches_exhaustive_scan(name):
    grp, full = _reference(name)
    orders = exhaustive_orders_mod_center(grp.field, full, scalars_in(full))
    want = Spectrum.from_values(orders, "oracle")
    assert spectrum_mod_center(grp).mu == want.mu


@pytest.mark.parametrize("name", ["SL2_5", "SL2_7", "SU3_2", "SU3_3"])
def test_row_table_closure_matches_scalar_bfs(name, monkeypatch):
    """Also when each level is built in pieces of 97 or 4099 keys."""
    grp, full = _reference(name)
    assert grp.order == len(full)
    want = least_coset_keys(grp.field, full, scalars_in(full))
    assert np.array_equal(grp.elements, want)
    for chunk in (97, 4099):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        got = _close_once(grp.field, grp.dim, grp.generators,
                          grp.elements.size, grp.center_scalars)
        assert np.array_equal(got, want), chunk


# field (p, k) and dimension n of every registered matrix target
_TARGET_SHAPES = {
    "SL2_4": (2, 2, 2), "SL2_5": (5, 1, 2), "SL2_7": (7, 1, 2),
    "SL2_9": (3, 2, 2), "SL2_13": (13, 1, 2), "SL2_37": (37, 1, 2),
    "SU3_3": (3, 2, 3), "SU3_5": (5, 2, 3), "SU4_3": (3, 2, 4),
    "SP4_5": (5, 1, 4),
}


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("name", sorted(_MATRIX_TARGETS))
def test_row_table_matches_batch_mul(name, transpose):
    p, k, n = _TARGET_SHAPES[name]
    F = make_field(p, k)
    bits = _bits_for(F)
    rng = random.Random(name)
    for _ in range(3):
        h = tuple(tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n))
        got = _row_table(F, n, bits, h, transpose)
        want = row_table_batch_mul(F, n, bits, h, transpose)
        assert got.dtype == want.dtype and np.array_equal(got, want), h


@pytest.mark.parametrize("name", sorted(_SMALL_GROUPS))
def test_form_center_matches_reference_scalars(name):
    grp, full = _reference(name)
    assert grp.center_scalars == scalars_in(full)


@pytest.mark.parametrize("drop", [1, 2, 3])
def test_closure_without_a_central_scalar_is_form_violation(drop):
    # without lam, a least key over the rest no longer names one coset of
    # Z: each coset yields two, past the target |G|/(|Z| - 1)
    grp = su_group(3, 2)
    center = tuple(lam for lam in grp.center_scalars if lam != drop)
    with pytest.raises(FormViolationError):
        closure(grp.generators, grp.order, grp.field, grp.dim, _no_sample,
                center)


@pytest.mark.parametrize("name,count", [
    ("SL2_4", 4 + 1), ("SL2_5", 5 + 4), ("SL2_7", 7 + 4), ("SL2_9", 9 + 4),
    ("SL2_13", 13 + 4), ("SU3_3", 14)])
def test_conjugacy_class_counts(name, count):
    """SL2(q) has q + 4 classes for odd q and q + 1 for even q; closed
    with the trivial centre, the group is the whole linear group."""
    grp = _SMALL_GROUPS[name]()
    full = closure(grp.generators, grp.order, grp.field, grp.dim,
                   _no_sample, (1,))
    assert full.elements.size == grp.order
    assert np.unique(conjugacy_classes(full)).size == count


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_projective_class_counts(q):
    """PSL2(q) has (q + 5)/2 classes for odd q."""
    label = conjugacy_classes(sl2_group(q))
    assert np.unique(label).size == (q + 5) // 2


def test_conjugate_outside_elements_is_form_violation(monkeypatch):
    # drop one non-central element: the generator that does not commute
    # with it maps another element's conjugate onto the missing key; the
    # check must catch it whole and in pieces of three keys
    grp = sl2_group(5)
    key = _pack(np.array([((1, 1), (0, 1))], dtype=np.uint16),
                _bits_for(grp.field))
    assert np.isin(key, grp.elements).all()
    broken = MatrixGroup(grp.field, grp.dim, grp.generators,
                         grp.elements[grp.elements != key[0]],
                         grp.center_scalars)
    for chunk in (oracle._CHUNK, 3):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        with pytest.raises(FormViolationError):
            conjugacy_classes(broken)


def test_conjugate_of_a_key_outside_the_group_is_form_violation():
    # same size: one non-central key is swapped for the coset key of
    # diag(2, 1), of determinant 2, whose conjugates are no elements either
    grp = sl2_group(5)
    bits = _bits_for(grp.field)
    key, outside = _pack(np.array([((1, 1), (0, 1)), ((2, 0), (0, 1))],
                                  dtype=np.uint16), bits)
    outside = _least_coset_key(
        _center_tables(grp.field, grp.dim, bits, grp.center_scalars),
        np.array([outside]), grp.dim, bits)[0]
    assert key in grp.elements and outside not in grp.elements
    swapped = np.sort(np.where(grp.elements == key, outside, grp.elements))
    broken = MatrixGroup(grp.field, grp.dim, grp.generators, swapped,
                         grp.center_scalars)
    assert swapped.size == grp.elements.size
    with pytest.raises(FormViolationError):
        conjugacy_classes(broken)


# the matrix targets of the oracle-alt benchmark workload
_BENCH_TARGETS = ["SL2_4", "SL2_5", "SL2_7", "SL2_9", "SL2_13", "SL2_37",
                  "SU3_3", "SU3_5"]


@pytest.mark.parametrize("chunk", [None, 97, 4099])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", _BENCH_TARGETS)
def test_conjugation_map_matches_searchsorted(name, seed, chunk, monkeypatch):
    """Maps that invert the binary-search ones for every generator (the
    sort reads off conjugation by g^-1, the search conjugation by g), and
    class labels equal to the whole-array propagation and to those from
    the binary-search maps.  With a chunk, every pass of the closure and
    the scan goes in many pieces, the last one ragged, and the closure
    must give the elements of the default piece size."""
    build = partial(matrix_group, _MATRIX_TARGETS[name])
    grp = build(seed=seed)
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        default, grp = grp, build(seed=seed)
        assert grp.generators == default.generators
        assert np.array_equal(grp.elements, default.elements)
    for g in grp.generators:
        got = _conjugation_map(grp, g)
        forward = conjugation_map_searchsorted(grp, g)
        want = np.empty_like(forward)
        want[forward] = np.arange(forward.size, dtype=forward.dtype)
        assert got.dtype == want.dtype and np.array_equal(got, want), g
    label = conjugacy_classes(grp)
    assert np.array_equal(label, class_labels_whole_array(grp))
    monkeypatch.setattr(oracle, "_conjugation_map", conjugation_map_searchsorted)
    assert np.array_equal(label, conjugacy_classes(grp))


@pytest.mark.parametrize("name", sorted(_MATRIX_TARGETS))
def test_class_labels_match_whole_array_reference(name, default_group, default_labels):
    """The in-place propagation reaches the labels of the whole-array one
    on every registered target, each built and scanned once per session
    (default_group, default_labels: the labels that oracle_runner's
    spectrum scan reads)."""
    grp = default_group(name)
    label = default_labels(name)
    assert label.dtype == np.int32
    assert np.array_equal(label, class_labels_whole_array(grp))


def test_spectrum_mod_center_support():
    """Divisor-closure support of the oracle spectrum equals the primes of
    the central quotient's order."""
    grp = sl2_group(9)
    mu = spectrum_mod_center(grp)
    sup = set()
    for m in mu:
        sup.update(prime_support(m, 37))
    assert sorted(sup) == [2, 3, 5]  # |PSL2(9)| = 360


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", _BENCH_TARGETS)
def test_first_scalar_power_of_a_class_lies_in_the_center(name, seed):
    """spectrum_mod_center drops a representative at its first scalar
    power, which counts as the order modulo Z only if that scalar is in
    Z: every scalar matrix of G is one of group.center_scalars."""
    grp = matrix_group(_MATRIX_TARGETS[name], seed)
    label = conjugacy_classes(grp)
    reps = _unpack(grp.elements[label == np.arange(label.size)], grp.dim,
                   _bits_for(grp.field))
    for M in reps.tolist():
        P = M = tuple(map(tuple, M))
        while not (lam := scalars_in([P])):
            P = mat_mul(grp.field, P, M)
        assert lam[0] in grp.center_scalars, M


# ---------------------------------------------------------------------------
# alternating-group scan

def test_alternating_bruteforce_small():
    assert alternating_spectrum_bruteforce(5).mu == (2, 3, 5)
    assert alternating_spectrum_bruteforce(7).mu == (4, 5, 6, 7)


@pytest.mark.parametrize("n", range(5, 10))
def test_alternating_full_omega_equality(n):
    assert alternating_orders_bruteforce(n) == omega_alternating(n)
    assert alternating_spectrum_bruteforce(n).mu == mu_alternating(n).mu


@pytest.mark.parametrize("n", range(5, 10))
def test_permutation_scan_matches_loop(n):
    assert alternating_orders_bruteforce(n) == alternating_orders_loop(n)


@pytest.mark.parametrize("n", range(5, 10))
def test_cycle_length_masks_match_gather_scan(n, monkeypatch):
    """On every _CHUNK piece of rows the scan meets, the same masks as the
    all-points gather scan it replaced."""
    rows = []

    def checked(perm):
        got = _cycle_length_masks(perm)
        assert np.array_equal(got, cycle_length_masks_gather(perm))
        rows.append(len(perm))
        return got

    monkeypatch.setattr(oracle, "_cycle_length_masks", checked)
    alternating_orders_bruteforce(n)
    assert sum(rows) == factorial(n) // 2


@pytest.mark.parametrize("n", range(2, 11))
def test_cycle_length_masks_match_loop_on_random_rows(n):
    """Random permutations, odd ones included, with the identity and the
    n-cycle; each row split into cycles in Python."""
    rng = np.random.default_rng(20261019 + n)
    perm = np.array([rng.permutation(n) for _ in range(3000)]
                    + [np.arange(n), np.roll(np.arange(n), 1)], dtype=np.uint8)
    want = sorted({cycle_length_mask_loop(row.tolist()) for row in perm})
    assert _cycle_length_masks(perm).tolist() == want


def test_alternating_a10_mu(oracle_runner):
    res = oracle_runner("A10")
    assert res.match and res.mu_oracle.mu == (8, 9, 10, 12, 15, 21)
    assert res.enumerated == 1814400


@pytest.mark.parametrize("n", range(1, 9))
def test_even_mask_matches_inversion_parity(n):
    """_even_odd_permutations(n) is the inversion-parity split of
    itertools.permutations, each half in its order."""
    split = ([], [])
    for perm in itertools.permutations(range(n)):
        split[inversion_count(perm) % 2].append(perm)
    for got, want in zip(_even_odd_permutations(n), split):
        assert got.dtype == np.uint8 and got.shape == (len(want), n)
        assert [tuple(row) for row in got.tolist()] == want


def test_permutation_scan_missing_a_row_is_closure_error(monkeypatch):
    """Without the first even permutation of five points, the blocks of A6
    that start with 0, 2 or 4 lose a row each, and the scan raises."""
    real = oracle._even_odd_permutations

    def short(m):
        even, odd = real(m)
        return even[1:], odd

    monkeypatch.setattr(oracle, "_even_odd_permutations", short)
    with pytest.raises(ClosureError):
        alternating_orders_bruteforce(6)


def test_alternating_range_check():
    with pytest.raises(ValueError):
        alternating_orders_bruteforce(11)


# ---------------------------------------------------------------------------
# registry and the largest closures

# each target, in registry order, and the simple group whose spectrum it
# certifies
_TARGET_GROUPS = {
    "SL2_13": "L2(13)", "SL2_37": "L2(37)", "SL2_4": "L2(4)", "SL2_5": "L2(5)",
    "SL2_7": "L2(7)", "SL2_9": "L2(9)", "SP4_5": "S4(5)", "SU3_3": "U3(3)",
    "SU3_5": "U3(5)", "SU4_3": "U4(3)", "A5": "A5", "A6": "A6", "A7": "A7",
    "A8": "A8", "A9": "A9", "A10": "A10",
}


def test_target_registry():
    assert ORACLE_TARGETS == tuple(_TARGET_GROUPS)
    with pytest.raises(ValueError):
        run_target("SL3_3")


@pytest.mark.parametrize("name", list(_TARGET_GROUPS))
def test_formula_side_is_spectrum_of(name, oracle_runner):
    """The oracle certifies the dispatch that every gk command takes."""
    g = parse_label(_TARGET_GROUPS[name])
    assert oracle_runner(name).mu_formula == spectrum_of(g)


def test_sp4_5(oracle_runner):
    res = oracle_runner("SP4_5")
    assert res.enumerated == 5**4 * (5**2 - 1) * (5**4 - 1) == 9360000
    assert res.match and res.mu_oracle.mu == (12, 13, 20, 30)
    assert res.mu_formula == mu_S4(5)


def test_sl2_37(oracle_runner):
    res = oracle_runner("SL2_37")
    assert res.enumerated == 37 * (37 * 37 - 1) == 50616
    assert res.match and res.mu_oracle.mu == (18, 19, 37)
