"""The rank-2 projective-bundle pushforward calculus."""

import pytest
from hypothesis import given, settings, strategies as st

from genus2chow.bundles import (
    BundleClasses,
    SClassCombo,
    diagonal_class,
    push_multiplication_power,
    root_product,
    segre_pushforward,
    srj_table,
    veronese_pushforward,
)
from genus2chow.ring import IntPolynomial, NotSymmetricError, Ring

from helpers import elementary, reference_diagonal, reference_squarefree, reference_veronese


@pytest.fixture
def generic():
    """Generic Chern classes c1, c2 next to a hyperplane class."""
    ring = Ring(("t", 1), ("c1", 1), ("c2", 2))
    return BundleClasses(c1=ring.var("c1"), c2=ring.var("c2"))


@pytest.fixture
def lam_ring():
    return Ring(("t", 1), ("lambda1", 1), ("lambda2", 2))


def _swapped(multiplicities: tuple, k: int) -> tuple:
    """The multiplicities with the k-th bundle's two roots exchanged."""
    m = list(multiplicities)
    m[2 * k], m[2 * k + 1] = m[2 * k + 1], m[2 * k]
    return tuple(m)


class TestRootProduct:
    """On split bundles, with roots (x, y) and (u, v), the product rewritten
    in Chern classes is the plain product at those roots."""

    RING = Ring(("x", 1), ("y", 1), ("u", 1), ("v", 1), ("z", 1))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 2),
        st.lists(
            st.tuples(
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                st.lists(st.integers(-3, 3), min_size=4, max_size=4),
            ),
            max_size=2,
        ),
    )
    def test_split_bundles(self, nbundles, drawn):
        ring = self.RING
        roots = [ring.var(name) for name in ("x", "y", "u", "v")[: 2 * nbundles]]
        classes = [BundleClasses(c1=a + b, c2=a * b) for a, b in zip(roots[::2], roots[1::2])]
        factors = []
        for (wx, wz), multiplicities in drawn:
            # A base class in x and z; more base variables make a degree-8
            # product take seconds.
            base = wx * ring.var("x") + wz * ring.var("z")
            # Close the drawn factor under each bundle's root swap.
            orbit = [tuple(multiplicities[: 2 * nbundles])]
            for k in range(nbundles):
                orbit += [_swapped(m, k) for m in orbit]
            factors += [(base, m) for m in orbit]
        expected = ring.one()
        for base, multiplicities in factors:
            expected = expected * (base + sum(m * r for m, r in zip(multiplicities, roots)))
        assert root_product(classes, factors) == expected

    def test_one_coefficient_split_per_bundle(self, monkeypatch):
        ring = self.RING
        x, y, u, v, z = (ring.var(name) for name in ring.names)
        classes = [BundleClasses(c1=x + y, c2=x * y), BundleClasses(c1=u + v, c2=u * v)]
        factors = [(z, m) for m in ((1, 2, 3, 0), (2, 1, 3, 0), (1, 2, 0, 3), (2, 1, 0, 3))]
        factors += [(x - z, m) for m in ((1, 1, 1, 2), (1, 1, 2, 1))]
        splits = []
        original = IntPolynomial.coefficients

        def counted(p, names):
            split = original(p, names)
            splits.append(len(split))
            return split

        monkeypatch.setattr(IntPolynomial, "coefficients", counted)
        expected = ring.one()
        for base, (m1, m2, m3, m4) in factors:
            expected = expected * (base + m1 * x + m2 * y + m3 * u + m4 * v)
        assert root_product(classes, factors) == expected
        # One split per bundle, each with many root profiles.
        assert len(splits) == 2 and min(splits) > 10

    def test_asymmetric_factor(self, generic):
        with pytest.raises(NotSymmetricError):
            root_product([generic], [(generic.ring.var("t"), (1, 2))])


class TestSrjTable:
    def test_alpha_table(self):
        ring = Ring(("t", 1), ("alpha1", 1), ("alpha2", 2))
        cls = BundleClasses(c1=-ring.var("alpha1"), c2=ring.var("alpha2"))
        table = srj_table(2, cls, ring.var("t"))
        assert table[0] == 1
        assert table[1] == ring.var("t")
        assert table[2] == ring.parse("t^2 - alpha1*t + 2*alpha2")

    def test_degree_six_entry(self, lam_ring):
        cls = BundleClasses(c1=-lam_ring.var("lambda1"), c2=lam_ring.var("lambda2"))
        table = srj_table(6, cls, lam_ring.var("t"))
        assert table[3] == lam_ring.parse(
            "t^3 - 3*lambda1*t^2 + (2*lambda1^2 + 16*lambda2)*t - 12*lambda1*lambda2"
        )

    def test_first_entry_is_hyperplane(self, generic):
        for r in range(1, 7):
            assert srj_table(r, generic, generic.ring.var("t"))[1] == generic.ring.var("t")

    def test_entries_homogeneous_of_their_index(self, generic):
        table = srj_table(5, generic, generic.ring.var("t"))
        assert table[0] == 1
        for j, entry in enumerate(table):
            assert entry.weighted_degree() == (0 if j == 0 else j)


class TestMultPushforward:
    @staticmethod
    def _push(ring, a, alpha, b, beta):
        return SClassCombo.unit(ring, a, alpha).push_multiply(SClassCombo.unit(ring, b, beta))

    def test_binomials(self, lam_ring):
        assert self._push(lam_ring, 1, 1, 3, 0) == SClassCombo.unit(lam_ring, 4, 1)
        assert self._push(lam_ring, 3, 3, 3, 3) == SClassCombo.unit(lam_ring, 6, 6)
        unit = SClassCombo.unit(lam_ring, 6, 0)
        assert self._push(lam_ring, 3, 0, 3, 0) == SClassCombo(6, [20 * c for c in unit.coeffs])

    def test_out_of_range(self, lam_ring):
        with pytest.raises(ValueError):
            SClassCombo.unit(lam_ring, 2, 3)

    def test_combo_bilinearity(self, lam_ring):
        lam1 = lam_ring.parse("lambda1")
        a = SClassCombo(3, [lam1 * c for c in SClassCombo.unit(lam_ring, 3, 1).coeffs])
        b = SClassCombo.unit(lam_ring, 3, 2)
        pushed = a.push_multiply(b)
        # s_3^1 x s_3^2 -> binom(2+1, 2) s_6^3 = 3 s_6^3
        assert pushed.coeffs[3] == lam_ring.parse("3*lambda1")


def _hyperplanes(generic, n):
    """The ring of ``generic`` with hyperplane classes x1..xn, the classes
    lifted to it, and the names."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    ring = generic.ring.extend(*((name, 1) for name in names))
    return ring, BundleClasses(c1=generic.c1.into(ring), c2=generic.c2.into(ring)), names


class TestDiagonal:
    def test_double(self, generic):
        ring, cls, names = _hyperplanes(generic, 2)
        assert diagonal_class(cls, names) == reference_diagonal(cls, names)
        assert diagonal_class(cls, names) == ring.parse("x1 + x2 + c1")

    def test_triple(self, generic):
        ring, cls, names = _hyperplanes(generic, 3)
        assert diagonal_class(cls, names) == reference_diagonal(cls, names)
        assert diagonal_class(cls, names) == ring.parse(
            "(x1*x2 + x2*x3 + x3*x1) + (x1 + x2 + x3)*c1 + c1^2 - c2"
        )

    def test_triple_from_double_consistency(self, generic):
        # Multiply two pairwise diagonals and reduce the middle hyperplane
        # square by its fiber relation.
        _, cls, names = _hyperplanes(generic, 3)
        product = diagonal_class(cls, names[:2]) * diagonal_class(cls, names[1:])
        assert reference_squarefree(product, ("x2",), cls) == diagonal_class(cls, names)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_hyperplane_classes_agree_on_the_diagonal(self, generic, n):
        ring, cls, names = _hyperplanes(generic, n)
        diagonal = diagonal_class(cls, names)
        assert diagonal.weighted_degree() == n - 1
        for name in names[1:]:
            moved = (ring.var("x1") - ring.var(name)) * diagonal
            assert reference_squarefree(moved, names, cls) == 0

    @pytest.mark.parametrize("n", range(2, 6))
    def test_trivial_bundle_gives_the_elementary_polynomial(self, generic, n):
        ring, _, names = _hyperplanes(generic, n)
        trivial = BundleClasses(c1=ring.zero(), c2=ring.zero())
        assert diagonal_class(trivial, names) == elementary(ring, names, n - 1)


class TestVeronese:
    def test_closed_formulas(self, generic):
        for k in (2, 3):
            for j in (0, 1):
                assert veronese_pushforward(k, j, generic) == reference_veronese(k, j, generic)

    def test_square_fundamental(self, generic):
        combo = veronese_pushforward(2, 0, generic)
        assert combo.coeffs[1] == 2
        assert combo.coeffs[0] == 2 * generic.c1

    def test_cube_hyperplane(self, generic):
        combo = veronese_pushforward(3, 1, generic)
        assert combo.coeffs[3] == 1
        assert combo.coeffs[1] == -6 * generic.c2
        assert combo.coeffs[0] == -6 * generic.c1 * generic.c2

    def test_trivial_chern_specialization(self):
        ring = Ring(("t", 1), ("c1", 1), ("c2", 2))
        cls = BundleClasses(c1=ring.zero(), c2=ring.zero())
        combo = veronese_pushforward(3, 0, cls)
        assert combo.coeffs[2] == 3
        assert combo.coeffs[0] == 0 and combo.coeffs[1] == 0

    def test_unsupported_indices(self, generic):
        with pytest.raises(ValueError):
            veronese_pushforward(0, 0, generic)
        with pytest.raises(ValueError):
            veronese_pushforward(2, 2, generic)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_pullback_and_fiber_relations(self, generic, k):
        # V0 and V1 are the pushforwards of 1 and x along the Veronese map
        # v, which pulls t back to k x.  So t V0 = v_*(k x) = k V1, and
        # t V1 = v_*(k x^2) = -k c1 V1 - k c2 V0 up to the relation
        # s_k^(k+1) of P(Sym^k E); both sides lead with t^(k+1), so that
        # multiple is exactly the relation.
        t, c1, c2 = generic.ring.var("t"), generic.c1, generic.c2
        table = srj_table(k, generic, t)
        v0, v1 = (veronese_pushforward(k, j, generic).expand(table) for j in (0, 1))
        assert t * v0 == k * v1
        relation = (t + k * c1) * table[k] + k * c2 * table[k - 1]
        assert t * v1 + k * c1 * v1 + k * c2 * v0 == relation

    @pytest.mark.parametrize("k", range(2, 7))
    def test_rational_normal_curve_has_degree_k(self, generic, k):
        assert veronese_pushforward(k, 0, generic).coeffs[k - 1] == k


class TestSegre:
    @pytest.fixture
    def bundles(self):
        ring = Ring(("x", 1), ("c11", 1), ("c21", 2), ("c12", 1), ("c22", 2))
        e1 = BundleClasses(c1=ring.var("c11"), c2=ring.var("c21"))
        e2 = BundleClasses(c1=ring.var("c12"), c2=ring.var("c22"))
        return ring, e1, e2

    def test_fundamental_class(self, bundles):
        ring, e1, e2 = bundles
        assert segre_pushforward((0, 0), e1, e2, ring.var("x")) == ring.parse("2*x + c11 + c12")

    def test_first_hyperplane_with_trivial_first_factor(self):
        ring = Ring(("x", 1), ("c12", 1), ("c22", 2))
        e1 = BundleClasses(c1=ring.zero(), c2=ring.zero())
        e2 = BundleClasses(c1=ring.var("c12"), c2=ring.var("c22"))
        assert segre_pushforward((1, 0), e1, e2, ring.var("x")) == ring.parse("x^2 + c12*x + c22")

    def test_product_with_both_trivial(self):
        ring = Ring(("x", 1),)
        triv = BundleClasses(c1=ring.zero(), c2=ring.zero())
        assert segre_pushforward((1, 1), triv, triv, ring.var("x")) == ring.var("x") ** 3

    def test_projection_formula_self_consistency(self, bundles):
        # Push (x1 + x2)*x2 two ways: via the projection formula against the
        # pushforward of x2, and by expanding x2^2 through its fiber relation.
        ring, e1, e2 = bundles
        x = ring.var("x")
        via_projection = x * segre_pushforward((0, 1), e1, e2, x)
        via_relation = (
            segre_pushforward((1, 1), e1, e2, x)
            - e2.c1 * segre_pushforward((0, 1), e1, e2, x)
            - e2.c2 * segre_pushforward((0, 0), e1, e2, x)
        )
        assert via_projection == via_relation

    def test_unknown_index(self, bundles):
        ring, e1, e2 = bundles
        with pytest.raises(ValueError):
            segre_pushforward((2, 0), e1, e2, ring.var("x"))


class TestEvaluationAtAClass:
    """The formulas use only ring operations, so evaluating them at a class
    gives what evaluating at the hyperplane variable and substituting gives."""

    RING = Ring(("t", 1), ("c11", 1), ("c21", 2), ("c12", 1), ("c22", 2))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        st.integers(0, 6),
    )
    def test_evaluate_then_substitute(self, weights, r):
        ring = self.RING
        t = ring.var("t")
        v = sum((w * ring.var(n) for w, n in zip(weights, ("t", "c11", "c12"))), ring.zero())
        e1 = BundleClasses(c1=ring.var("c11"), c2=ring.var("c21"))
        e2 = BundleClasses(c1=ring.var("c12"), c2=ring.var("c22"))
        at_t = srj_table(r, e1, t)
        assert srj_table(r, e1, v) == tuple(e.substitute({"t": v}) for e in at_t)
        for exps in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert segre_pushforward(exps, e1, e2, v) == (
                segre_pushforward(exps, e1, e2, t).substitute({"t": v})
            )


class TestMultiplicationPower:
    def test_squarefree_counts(self, generic):
        ring = generic.ring.extend(("x1", 1), ("x2", 1), ("x3", 1))
        cls = BundleClasses(c1=generic.c1.into(ring), c2=generic.c2.into(ring))
        combo = push_multiplication_power(ring.var("x1") * ring.var("x2"), ("x1", "x2", "x3"), cls)
        assert combo.coeffs[2] == 1
        combo1 = push_multiplication_power(ring.var("x1"), ("x1", "x2", "x3"), cls)
        assert combo1.coeffs[1] == 2
        combo0 = push_multiplication_power(ring.one(), ("x1", "x2", "x3"), cls)
        assert combo0.coeffs[0] == 6

    def test_square_reduction(self, generic):
        ring = generic.ring.extend(("x1", 1), ("x2", 1))
        cls = BundleClasses(c1=generic.c1.into(ring), c2=generic.c2.into(ring))
        x1 = ring.var("x1")
        combo = push_multiplication_power(x1 * x1, ("x1", "x2"), cls)
        # x1^2 = -c1 x1 - c2, then push over the 2-fold map.
        assert combo.coeffs[1] == -cls.c1
        assert combo.coeffs[0] == -2 * cls.c2
