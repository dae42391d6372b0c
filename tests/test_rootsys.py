import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exceis.config import load_config
from exceis.eiscalc import AbsoluteOracle
from exceis.rootsys import ParabolicSpec, RootSystem, dot
from linalg_reference import solve
from weyl_reference import (coroot_pairing, enumerate_group, identity_matrix, is_positive_root,
                            label_pairing, levi_positive_count, longest_rep, mat_mul, mat_vec,
                            positive_roots, reference_reflect, root_vectors, weyl_order)
from weyl_reference import word_matrix as reference_word_matrix


@pytest.fixture(scope="module")
def cfg():
    return load_config()


class TestGenerate:
    def test_f4(self, cfg):
        f4 = cfg.system("F4")
        assert len(f4.coords) == 48
        assert weyl_order(f4) == 1152

    def test_g2(self, cfg):
        g2 = cfg.system("G2")
        assert len(g2.coords) == 12
        assert weyl_order(g2) == 12

    def test_d4_simple_roots(self, cfg):
        d4 = cfg.system("D4")
        assert len(d4.coords) == 24
        assert d4.simples[0] == (1, -1, 0, 0)
        assert d4.simples[3] == (0, 0, 1, 1)

    def test_weyl_order_matches_bfs_oracle(self, cfg):
        for name in ("G2", "B3", "C3", "D4", "F4"):
            sys = cfg.system(name)
            assert len(enumerate_group(sys)) == weyl_order(sys)

    def test_absolute_systems(self, cfg):
        expected = {
            "D5abs": (40, 1920), "D6abs": (60, 23040), "D7abs": (84, 322560),
            "E6abs": (72, 51840), "E7abs": (126, 2903040),
            "E8abs": (240, 696729600),
        }
        for name, (nroots, order) in expected.items():
            sys = cfg.system(name)
            assert len(sys.coords) == nroots
            assert weyl_order(sys) == order

    def test_coords_recombine_to_root(self, cfg):
        assert len(cfg.raw["systems"]) == 15
        for name in cfg.raw["systems"]:
            sys = cfg.system(name)
            for c in sys.coords:
                assert tuple(sum(c[i] * a[d] for i, a in enumerate(sys.simples))
                             for d in range(sys.dim)) == sys.vector(c)

    def test_reflections_preserve_roots_and_form(self, cfg):
        sys = cfg.system("F4")
        roots = set(root_vectors(sys))
        for i in range(1, sys.rank + 1):
            m = sys.word_matrix([i])
            for r in roots:
                assert mat_vec(m, r) in roots
            # orthogonality: columns have the same pairwise dots as the basis
            cols = list(zip(*m))
            for a in range(sys.dim):
                for b in range(sys.dim):
                    assert dot(cols[a], cols[b]) == (1 if a == b else 0)


class TestCosets:
    def test_positivity_conditions(self, cfg):
        sys = cfg.system("F4")
        left = sys.parabolic("M2")
        right = sys.parabolic("M1")
        lset = set(left.levi(sys.rank))
        rset = set(right.levi(sys.rank))
        for w in sys.double_coset_reps(left, right):
            m = sys.word_matrix(w)
            minv = sys.word_matrix(tuple(reversed(w)))
            for j in rset:
                assert is_positive_root(sys, mat_vec(m, sys.simples[j - 1]))
            for j in lset:
                assert is_positive_root(sys, mat_vec(minv, sys.simples[j - 1]))

    def test_identity_present_and_sorted(self, cfg):
        sys = cfg.system("B3")
        reps = sys.double_coset_reps(sys.parabolic("M1"), sys.parabolic("M2"))
        assert reps[0] == ()
        assert reps == sorted(reps, key=lambda w: (len(w), w))

    def test_trivial_parabolic(self, cfg):
        sys = cfg.system("D4")
        full = sys.parabolic("full")
        assert sys.double_coset_reps(full, full) == [()]

    def test_builtin_labels(self, cfg):
        d4 = cfg.system("D4")
        assert d4.parabolic("full") == d4.parabolic("G") == ParabolicSpec(frozenset())
        assert d4.parabolic("P0") == d4.parabolic("B") == ParabolicSpec(frozenset({1, 2, 3, 4}))
        with pytest.raises(KeyError, match="unknown parabolic 'P9' for system D4"):
            d4.parabolic("P9")
        # a configured label wins over a built-in one
        own = RootSystem("A2", [["1", "-1", "0"], ["0", "1", "-1"]],
                         parabolic_labels={"B": frozenset({1})})
        assert own.parabolic("B") == ParabolicSpec(frozenset({1}))

    def test_f4_coset_count_quotient(self, cfg):
        # |[W/W_M1]| = |W(F4)| / |W(C3)|
        f4 = cfg.system("F4")
        reps = f4.coset_reps(f4.parabolic("M1"))
        assert len(reps) == 1152 // 48 == 24

    def test_double_cosets_partition_group(self, cfg):
        # sum of |W_L w W_M| over minimal reps recovers |W| (brute force)
        for name, lL, lR in (("G2", "M1", "M1"), ("B3", "M1", "M2")):
            sys = cfg.system(name)
            left, right = sys.parabolic(lL), sys.parabolic(lR)
            group = set(enumerate_group(sys))
            wl = [sys.word_matrix(w) for w in
                  _subgroup_words(sys, left.levi(sys.rank))]
            wm = [sys.word_matrix(w) for w in
                  _subgroup_words(sys, right.levi(sys.rank))]
            total = 0
            for w in sys.double_coset_reps(left, right):
                mw = sys.word_matrix(w)
                coset = {mat_mul(a, mat_mul(mw, b)) for a in wl for b in wm}
                assert coset <= group
                total += len(coset)
            assert total == len(group)

    def test_longest_rep(self, cfg):
        f4 = cfg.system("F4")
        w0 = longest_rep(f4, f4.parabolic("M1"))
        assert len(w0) == 15
        assert f4.word_matrix(w0) == f4.word_matrix(
            [1, 2, 3, 4, 2, 3, 1, 2, 3, 4, 1, 2, 3, 2, 1])
        g2 = cfg.system("G2")
        assert g2.word_matrix(longest_rep(g2, g2.parabolic("M1"))) == \
            g2.word_matrix([2, 1, 2, 1, 2])

    def test_longest_length_formula(self, cfg):
        for name, lab in (("F4", "M1"), ("C3", "M3"), ("G2", "M2"), ("B3", "M2")):
            sys = cfg.system(name)
            p = sys.parabolic(lab)
            w0 = longest_rep(sys, p)
            assert len(w0) == len(positive_roots(sys)) - levi_positive_count(sys, p)

    def test_c3_siegel_longest(self, cfg):
        # length 6, equal as a group element to the product of the four
        # described reflections (the last one of length 3)
        c3 = cfg.system("C3")
        w0 = longest_rep(c3, c3.parabolic("M3"))
        assert len(w0) == 6
        assert c3.word_matrix(w0) == c3.word_matrix([3, 2, 1, 3, 2, 3])


def _subgroup_words(sys, levi):
    """All elements of the standard Levi subgroup's Weyl group, as words."""
    seen = {identity_matrix(sys.dim): ()}
    frontier = [identity_matrix(sys.dim)]
    while frontier:
        new = []
        for m in frontier:
            for i in levi:
                m2 = mat_mul(sys.word_matrix([i]), m)
                if m2 not in seen:
                    seen[m2] = (i,) + seen[m]
                    new.append(m2)
        frontier = new
    return list(seen.values())


class TestAssociatedSimples:
    def test_f4_examples(self, cfg):
        f4 = cfg.system("F4")
        m2 = f4.parabolic("M2")
        p1 = f4.parabolic("P1")
        assert f4.associated_simple_roots((2, 3, 2, 1), m2, p1) == (1, 4)
        m4 = f4.parabolic("M4")
        assert f4.associated_simple_roots((), m4, p1) == (1,)

    def test_trivial_levi(self, cfg):
        f4 = cfg.system("F4")
        p0 = f4.parabolic("P0")
        w0 = longest_rep(f4, f4.parabolic("M1"))
        assert f4.associated_simple_roots(w0, p0, f4.parabolic("P1")) == ()


class TestPairingsAndModulus:
    """Pairings read off simple-coroot labels and coroot coordinates, each
    against the Euclidean 2 (lam, a)/(a, a)."""

    def test_c3_pairing(self, cfg):
        from exceis.eiscalc import CoordVector
        c3 = cfg.system("C3")
        lam = CoordVector.lambda_s(c3)
        # the long root in the third coordinate pairs to s-1
        assert str(label_pairing(c3, lam, (0, 0, 2))) == "s-1"
        assert str(coroot_pairing(lam, (0, 0, 2))) == "s-1"

    def test_e6_pairing(self, cfg):
        from exceis.eiscalc import CoordVector
        a2 = cfg.system("A2-E6rational")
        lam = CoordVector.lambda_s(a2)
        assert str(label_pairing(a2, lam, (1, -1, 0))) == "s-8"
        assert str(coroot_pairing(lam, (1, -1, 0))) == "s-8"

    def test_zero_vector_pairing(self, cfg):
        from exceis.eiscalc import CoordVector
        c3 = cfg.system("C3")
        assert c3.labels((0, 0, 0)) == ([[0, 0, 0]], 1)
        z = label_pairing(c3, CoordVector((0, 0, 0), (0, 0, 0)), (0, 0, 2))
        assert z.slope == 0 and z.intercept == 0

    def test_modulus_exponents(self, cfg):
        expected = {
            ("D5abs", "P1"): 8, ("D6abs", "P1"): 10, ("D7abs", "P1"): 12,
            ("C3", "P3"): 18, ("F4", "P1"): 29,
            ("G2", "P1"): 5, ("D4", "P2"): 5, ("B3", "P2"): 5,
        }
        for (name, lab), want in expected.items():
            sys = cfg.system(name)
            assert sys.modulus_exponent(sys.parabolic(lab)) == want

    def test_modulus_rejects_non_maximal(self, cfg):
        sys = cfg.system("F4")
        with pytest.raises(ValueError):
            sys.modulus_exponent(ParabolicSpec(frozenset({1, 2})))

    def test_weighted_rho(self, cfg):
        assert cfg.system("C3").rho_weighted() == (17, 9, 1)
        assert cfg.system("G2").rho_weighted() == (5, -1, -4)
        assert cfg.system("F4").rho_weighted() == (23, 6, 5, 4)


# ----- differential tests: the integer kernel against the Euclidean path ------

# m_ij, the order of s_i s_j, from the product of the two Cartan entries
BRAID_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def _configured_parabolics(sys):
    return [sys.parabolic(lab) for lab in sorted(sys.parabolic_labels)]


def _matrix_inversions(sys, word):
    m = sys.word_matrix(word)
    return [r for r in positive_roots(sys) if not is_positive_root(sys, mat_vec(m, r))]


def _matrix_in_left_set(sys, word, left):
    minv = sys.word_matrix(tuple(reversed(word)))
    return all(is_positive_root(sys, mat_vec(minv, sys.simples[j - 1]))
               for j in left.levi(sys.rank))


def _euclidean_coset_reps(sys, right):
    """[W/W_M] by BFS over the orbit of the Euclidean point x with
    (x, alpha_i) = 0 for i in M and 1 otherwise."""
    levi = set(right.levi(sys.rank))
    gram = [[dot(a, b) for b in sys.simples] for a in sys.simples]
    coeff = solve(gram, [int(i not in levi) for i in range(1, sys.rank + 1)])
    base = tuple(sum(c * a[d] for c, a in zip(coeff, sys.simples)) for d in range(sys.dim))
    words = {base: ()}
    frontier = [base]
    while frontier:
        new = {}
        for pt in frontier:
            for i in range(1, sys.rank + 1):
                pt2 = reference_reflect(sys.simples[i - 1], pt)
                cand = (i,) + words[pt]
                if pt2 not in words and (pt2 not in new or cand < new[pt2]):
                    new[pt2] = cand
        words.update(new)
        frontier = list(new)
    return sorted(words.values(), key=lambda w: (len(w), w))


def _projected_restriction(oracle, root):
    """Orthogonal projection off the kernel span, in the rational basis."""
    abs_sys, rat = oracle.absolute, oracle.rational

    def project(v):
        ker = [abs_sys.simples[i - 1] for i in oracle.kernel]
        if not ker:
            return v
        c = solve([[dot(a, b) for b in ker] for a in ker], [dot(v, a) for a in ker])
        return tuple(x - sum(ci * a[d] for ci, a in zip(c, ker)) for d, x in enumerate(v))

    p = project(root)
    if not any(p):
        return None
    nodes = sorted(oracle.node_map)
    basis = [project(abs_sys.simples[i - 1]) for i in nodes]
    x = solve([[dot(a, b) for b in basis] for a in basis], [dot(p, b) for b in basis])
    targets = [rat.simples[oracle.node_map[i] - 1] for i in nodes]
    return tuple(sum(xi * t[d] for xi, t in zip(x, targets)) for d in range(rat.dim))


@st.composite
def system_and_words(draw, cfg):
    """A configured system, a word u, and a word v that is either random or
    u with a trivial product (s_i s_j)^{m_ij} spliced in."""
    sys = cfg.system(draw(st.sampled_from(sorted(cfg.raw["systems"]))))
    letters = st.integers(1, sys.rank)
    u = tuple(draw(st.lists(letters, max_size=10)))
    if draw(st.booleans()):
        v = tuple(draw(st.lists(letters, max_size=10)))
    else:
        i, j, k = draw(letters), draw(letters), draw(st.integers(0, len(u)))
        m = 1 if i == j else BRAID_ORDER[sys.cartan[i - 1][j - 1] * sys.cartan[j - 1][i - 1]]
        v = u[:k] + (i, j) * m + u[k:]
    return sys, u, v


class TestIntegerKernelAgainstMatrices:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_element_equality_is_matrix_equality(self, cfg, data):
        sys, u, v = data.draw(system_and_words(cfg))
        assert (sys.element(u) == sys.element(v)) == \
            (sys.word_matrix(u) == sys.word_matrix(v))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_inversions_and_left_sets(self, cfg, data):
        sys, u, _ = data.draw(system_and_words(cfg))
        assert sys.inversions(u) == _matrix_inversions(sys, u)
        for left in _configured_parabolics(sys) + [sys.parabolic("full")]:
            assert sys.in_left_set(u, left) == _matrix_in_left_set(sys, u, left)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_word_matrix_is_product_of_reflections(self, cfg, data):
        names = sorted(cfg.raw["systems"])
        assert len(names) == 15
        for name in names:
            sys = cfg.system(name)
            w = tuple(data.draw(st.lists(st.integers(1, sys.rank), max_size=10)))
            assert sys.word_matrix(w) == reference_word_matrix(sys, w), (name, w)

    def test_coset_reps_match_euclidean_bfs(self, cfg):
        for name in sorted(cfg.raw["systems"]):
            sys = cfg.system(name)
            for p in _configured_parabolics(sys):
                assert sys.coset_reps(p) == _euclidean_coset_reps(sys, p), (name, p)

    def test_oracle_restriction_is_orthogonal_projection(self, cfg):
        names = sorted(name for name, case in cfg.cases.items() if case.oracle)
        assert len(names) == 4
        for name in names:
            oracle = cfg.oracle(name)
            for r, k in zip(root_vectors(oracle.absolute), oracle.images):
                image = None if k is None else root_vectors(oracle.rational)[k]
                assert image == _projected_restriction(oracle, r), (name, r)


class TestIntegerKernelRejects:
    def test_non_crystallographic(self):
        # <alpha_1, alpha_2^vee> = 2 (-1/2) / (5/4) = -4/5
        with pytest.raises(ValueError, match="not integral"):
            RootSystem("bad", [["1", "0"], ["-1/2", "1"]])

    def test_linearly_dependent(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            RootSystem("bad", [["1", "0"], ["-1", "0"]])

    def test_not_a_simple_system(self):
        # an acute pair: s_1(alpha_2) = alpha_2 - 2 alpha_1 has mixed signs
        with pytest.raises(ValueError, match="simple system"):
            RootSystem("bad", [["1", "0"], ["1", "1"]])

    @pytest.mark.parametrize("kernel,nodes", [
        ([2, 3, 4], {1: 1}),              # node 5 in neither
        ([2, 3, 4, 5], {1: 1, 2: 1}),     # node 2 in both
        ([2, 3, 4, 5], {1: 2}),           # a target that is not a rational node
    ])
    def test_oracle_nodes_must_partition(self, cfg, kernel, nodes):
        with pytest.raises(ValueError, match="partition"):
            AbsoluteOracle(cfg.system("D5abs"), cfg.system("D5rel"),
                           kernel=kernel, node_map=nodes, source_node=1)
