"""Tests for RFIDSystem — coverage, feasibility and the weight oracle.

Includes the paper's Figure 2 example verbatim: fewer readers can serve
more tags, the key non-monotonicity of the weight function.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.points import pairwise_sq_distances
from repro.model import RFIDSystem, Reader, Tag, build_system
from repro.model.system import COVERAGE_CHUNK, ReducedSystems, _coverage_matrix
from tests.conftest import system_strategy


class TestConstruction:
    def test_id_mismatch_reader(self):
        readers = [Reader(id=1, x=0, y=0, interference_radius=2, interrogation_radius=1)]
        with pytest.raises(ValueError, match="reader at index 0"):
            RFIDSystem(readers, [])

    def test_id_mismatch_tag(self):
        readers = [Reader(id=0, x=0, y=0, interference_radius=2, interrogation_radius=1)]
        tags = [Tag(id=5, x=0, y=0)]
        with pytest.raises(ValueError, match="tag at index 0"):
            RFIDSystem(readers, tags)

    def test_empty_system(self):
        s = RFIDSystem([], [])
        assert s.num_readers == 0 and s.num_tags == 0
        assert s.weight([]) == 0
        assert s.is_feasible([])

    def test_build_system_radii_shape(self):
        with pytest.raises(ValueError):
            build_system(np.zeros((2, 2)), np.array([1.0]), np.array([1.0, 1.0]), np.empty((0, 2)))

    def test_accessors(self, line_system):
        assert line_system.num_readers == 3
        assert line_system.num_tags == 4
        assert line_system.reader(0).id == 0
        assert line_system.tag(3).id == 3
        assert line_system.reader_positions.shape == (3, 2)
        assert line_system.interference_radii.shape == (3,)


class TestCoverage:
    def test_incidence(self, line_system):
        cov = line_system.coverage
        assert cov.shape == (4, 3)
        assert cov[0, 0] and not cov[0, 1] and not cov[0, 2]
        assert cov[1, 1] and not cov[1, 0]
        assert cov[2, 2]
        assert not cov[3].any()  # stranded tag

    def test_covered_by_any(self, line_system):
        np.testing.assert_array_equal(
            line_system.covered_by_any(), [True, True, True, False]
        )


class TestFeasibility:
    def test_conflicting_pair(self, line_system):
        assert not line_system.independent(0, 1)
        assert line_system.independent(0, 2)
        assert not line_system.is_feasible([0, 1])
        assert line_system.is_feasible([0, 2])
        assert line_system.is_feasible([1, 2])

    def test_singletons_and_empty_feasible(self, line_system):
        assert line_system.is_feasible([])
        for i in range(3):
            assert line_system.is_feasible([i])

    def test_independent_self_raises(self, line_system):
        with pytest.raises(ValueError):
            line_system.independent(1, 1)

    def test_duplicates_collapse(self, line_system):
        assert line_system.is_feasible([2, 2])


class TestOperationalReaders:
    def test_rtc_pair_both_suffer(self, line_system):
        # A and B are inside each other's disks: both non-operational
        np.testing.assert_array_equal(
            line_system.operational_readers([0, 1]), []
        )

    def test_far_reader_unaffected(self, line_system):
        np.testing.assert_array_equal(
            line_system.operational_readers([0, 1, 2]), [2]
        )

    def test_feasible_set_all_operational(self, line_system):
        np.testing.assert_array_equal(
            line_system.operational_readers([0, 2]), [0, 2]
        )


class TestWeight:
    def test_singletons(self, line_system):
        assert line_system.weight([0]) == 1
        assert line_system.weight([1]) == 1
        assert line_system.weight([2]) == 1

    def test_feasible_pair_adds(self, line_system):
        assert line_system.weight([0, 2]) == 2

    def test_rtc_pair_reads_nothing(self, line_system):
        assert line_system.weight([0, 1]) == 0

    def test_rtc_pair_with_outsider(self, line_system):
        assert line_system.weight([0, 1, 2]) == 1

    def test_unread_mask_respected(self, line_system):
        unread = np.array([False, True, True, True])
        assert line_system.weight([0, 2], unread) == 1
        got = line_system.well_covered_tags([0, 2], unread)
        np.testing.assert_array_equal(got, [2])

    def test_unread_mask_shape_checked(self, line_system):
        with pytest.raises(ValueError):
            line_system.weight([0], np.array([True]))

    def test_unread_mask_shape_checked_for_empty_active_set(self, line_system):
        """A mis-sized mask is rejected even when no reader is active (the
        empty set used to return 0 before looking at the mask)."""
        short = np.ones(line_system.num_tags - 1, dtype=bool)
        for method in (line_system.weight, line_system.well_covered_tags):
            with pytest.raises(ValueError, match="unread mask"):
                method([], short)
        assert line_system.weight([], np.ones(line_system.num_tags, dtype=bool)) == 0

    def test_out_of_range_reader(self, line_system):
        with pytest.raises(IndexError):
            line_system.weight([7])

    def test_exclusive_coverage_counts(self, figure2_system):
        counts = figure2_system.exclusive_coverage_counts([0, 1, 2])
        # A exclusively covers tag1; B tag5; C tag4
        np.testing.assert_array_equal(counts, [1, 1, 1])


class TestFigure2:
    """The paper's Figure 2: scheduling fewer readers reads more tags."""

    def test_all_three_pairwise_independent(self, figure2_system):
        assert figure2_system.is_feasible([0, 1, 2])

    def test_full_set_weight_is_3(self, figure2_system):
        assert figure2_system.weight([0, 1, 2]) == 3

    def test_dropping_b_raises_weight_to_4(self, figure2_system):
        assert figure2_system.weight([0, 2]) == 4

    def test_overlap_tags_blocked_by_rrc(self, figure2_system):
        well = figure2_system.well_covered_tags([0, 1, 2])
        np.testing.assert_array_equal(well, [0, 3, 4])  # tags 1, 4, 5 (0-based)

    def test_weight_not_monotone(self, figure2_system):
        # the defining property: w(X ∪ {B}) < w(X)
        assert figure2_system.weight([0, 1, 2]) < figure2_system.weight([0, 2])


class TestWeightProperties:
    @given(system=system_strategy())
    @settings(max_examples=40, deadline=None)
    def test_weight_bounds(self, system):
        n = system.num_readers
        active = list(range(0, n, 2))
        w = system.weight(active)
        assert 0 <= w <= system.num_tags

    @given(system=system_strategy())
    @settings(max_examples=40, deadline=None)
    def test_weight_of_empty_is_zero(self, system):
        assert system.weight([]) == 0

    @given(system=system_strategy(max_readers=8))
    @settings(max_examples=40, deadline=None)
    def test_subadditivity_for_feasible_union(self, system):
        """w(X1 ∪ X2) ≤ w(X1) + w(X2) — the non-additivity direction the
        paper's Section IV calls out."""
        n = system.num_readers
        x1 = [i for i in range(n) if i % 2 == 0]
        x2 = [i for i in range(n) if i % 2 == 1]
        union = sorted(set(x1) | set(x2))
        if system.is_feasible(union):
            assert system.weight(union) <= system.weight(x1) + system.weight(x2)

    @given(system=system_strategy(max_readers=8))
    @settings(max_examples=40, deadline=None)
    def test_well_covered_owner_covers_tag(self, system):
        active = list(range(system.num_readers))
        for t in system.well_covered_tags(active):
            assert system.coverage[t, active].sum() == 1


class TestArrayConstruction:
    """``build_system`` (arrays straight into the core) against the entity
    adapter ``RFIDSystem(readers, tags)`` on the same deployment."""

    @staticmethod
    def _entities(system):
        pos = system.reader_positions
        R = system.interference_radii
        gamma = system.interrogation_radii
        readers = [
            Reader(
                id=i,
                x=float(pos[i, 0]),
                y=float(pos[i, 1]),
                interference_radius=float(R[i]),
                interrogation_radius=float(gamma[i]),
            )
            for i in range(system.num_readers)
        ]
        tpos = system.tag_positions
        tags = [
            Tag(id=t, x=float(tpos[t, 0]), y=float(tpos[t, 1]))
            for t in range(system.num_tags)
        ]
        return readers, tags

    @given(system=system_strategy())
    @settings(max_examples=60, deadline=None)
    def test_entity_and_array_paths_agree(self, system):
        readers, tags = self._entities(system)
        ent = RFIDSystem(readers, tags)
        for name in (
            "reader_positions",
            "tag_positions",
            "interference_radii",
            "interrogation_radii",
            "coverage",
            "in_interference_range",
            "conflict",
        ):
            a, b = getattr(system, name), getattr(ent, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        pa, pb = system.packed_coverage, ent.packed_coverage
        np.testing.assert_array_equal(pa.words, pb.words)
        assert pa.masks == pb.masks
        assert system.readers == readers and system.tags == tags
        for i in range(system.num_readers):
            assert system.reader(i) == ent.reader(i)
            assert ent.reader(i) is readers[i]
        for t in range(system.num_tags):
            assert system.tag(t) == ent.tag(t)
            assert ent.tag(t) is tags[t]

    def test_entities_are_lazy_and_cached(self, monkeypatch):
        made = []

        def counting(post):
            def post_init(self):
                made.append(self)
                post(self)

            return post_init

        for cls in (Reader, Tag):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
        system = build_system(
            np.array([[0.0, 0.0], [5.0, 0.0]]),
            np.array([2.0, 3.0]),
            np.array([1.0, 3.0]),
            np.array([[0.5, 0.0], [5.0, 1.0], [9.0, 9.0]]),
        )
        assert system.weight([0, 1]) == 2
        assert made == []
        first = system.reader(1)
        assert made == [first]
        assert system.reader(1) is first and system.reader(-1) is first
        assert system.readers[1] is first
        assert len(made) == 2  # .readers built reader 0 only
        assert system.tag(2) is system.tag(2)
        assert first == Reader(
            id=1, x=5.0, y=0.0, interference_radius=3.0, interrogation_radius=3.0
        )
        with pytest.raises(IndexError):
            system.reader(2)
        with pytest.raises(IndexError):
            system.tag(3)

    def test_build_system_copies_its_inputs(self):
        pos = np.array([[0.0, 0.0]])
        R = np.array([2.0])
        tags = np.array([[0.5, 0.0]])
        system = build_system(pos, R, R, tags)
        pos[0, 0] = R[0] = tags[0, 0] = 100.0
        assert system.reader(0).x == 0.0 and system.interference_radii[0] == 2.0
        assert system.coverage.all() and system.tag_positions[0, 0] == 0.5


class TestArrayValidation:
    """``build_system`` rejects what the entity path rejects, with the same
    messages as :class:`Reader`."""

    @staticmethod
    def _build(R, gamma, pos=((0.0, 0.0), (10.0, 0.0)), tags=((1.0, 1.0),)):
        return build_system(
            np.array(pos, dtype=float),
            np.array(R, dtype=float),
            np.array(gamma, dtype=float),
            np.array(tags, dtype=float),
        )

    @pytest.mark.parametrize(
        "R, gamma, match",
        [
            ([2.0, 2.0], [1.0, 3.0], "must not exceed"),
            ([2.0, 0.0], [1.0, 0.0], "interference_radius must be > 0"),
            ([2.0, 2.0], [1.0, -1.0], "interrogation_radius must be > 0"),
            ([np.nan, 2.0], [1.0, 1.0], "interference_radius must be finite"),
            ([2.0, np.inf], [1.0, 1.0], "interference_radius must be finite"),
            ([2.0, 2.0], [np.nan, 1.0], "interrogation_radius must be finite"),
        ],
    )
    def test_invalid_radii(self, R, gamma, match):
        with pytest.raises(ValueError, match=match):
            self._build(R, gamma)
        with pytest.raises(ValueError, match=match):
            RFIDSystem(
                [
                    Reader(
                        id=k,
                        x=0.0,
                        y=0.0,
                        interference_radius=R[k],
                        interrogation_radius=gamma[k],
                    )
                    for k in range(2)
                ],
                [],
            )

    def test_gamma_within_tolerance_accepted(self):
        system = self._build([2.0, 2.0], [1.0, 2.0 + 1e-13])
        assert system.num_readers == 2

    @pytest.mark.parametrize(
        "pos, tags",
        [
            (((0.0, np.nan), (10.0, 0.0)), ((1.0, 1.0),)),
            (((0.0, 0.0), (np.inf, 0.0)), ((1.0, 1.0),)),
            (((0.0, 0.0), (10.0, 0.0)), ((1.0, -np.inf),)),
        ],
    )
    def test_non_finite_position(self, pos, tags):
        with pytest.raises(ValueError, match="non-finite"):
            self._build([2.0, 2.0], [1.0, 1.0], pos=pos, tags=tags)


class TestChunkedCoverage:
    """``_coverage_matrix`` decides each tag row in chunks exactly as the
    one-shot ``pairwise_sq_distances(tags, readers) <= γ²``."""

    @staticmethod
    def _one_shot(tags, readers, gamma):
        return pairwise_sq_distances(tags, readers) <= gamma[None, :] ** 2

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_chunked_equals_one_shot(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n = data.draw(st.integers(1, 25))
        m = data.draw(st.integers(1, 120))
        if data.draw(st.booleans()):
            # integer points and radii: many tags lie exactly on a circle
            readers = rng.integers(0, 20, size=(n, 2)).astype(float)
            tags = rng.integers(0, 20, size=(m, 2)).astype(float)
            gamma = rng.integers(1, 6, size=n).astype(float)
        else:
            readers = rng.uniform(0, 50, size=(n, 2))
            tags = rng.uniform(0, 50, size=(m, 2))
            # each radius reaches one tag as the one-shot rounds it
            sq = pairwise_sq_distances(tags, readers)
            gamma = np.sqrt(sq[rng.integers(0, m, size=n), np.arange(n)])
            gamma = np.maximum(gamma, 1e-3)
        chunk = data.draw(st.integers(1, n * m + n))
        got = _coverage_matrix(tags, readers, gamma, chunk=chunk)
        assert got.dtype == bool and got.shape == (m, n)
        np.testing.assert_array_equal(got, self._one_shot(tags, readers, gamma))

    @pytest.mark.parametrize(
        "m, n, chunk",
        [
            (300, 17, 23 * 17),  # 23-row chunks would leave a one-row tail
            (7, 3, 6),  # two-row chunks: the tail joins the last chunk
            (10, 3, 9),
            (5, 1, 2),
            (1, 4, 1),
        ],
    )
    def test_odd_tails_match_one_shot(self, m, n, chunk):
        rng = np.random.default_rng(m * 31 + n)
        readers = rng.uniform(0, 100, size=(n, 2))
        tags = rng.uniform(0, 100, size=(m, 2))
        # radii between the two roundings of the last tag row: the gemm of
        # the one-shot product and the gemv a one-row tail would take
        gemm = pairwise_sq_distances(tags, readers)[-1]
        gemv = pairwise_sq_distances(tags[-1:], readers)[0]
        low = np.minimum(gemm, gemv)
        gamma = np.sqrt(low)
        for _ in range(4):
            gamma = np.where(gamma ** 2 < low, np.nextafter(gamma, np.inf), gamma)
        got = _coverage_matrix(tags, readers, gamma, chunk=chunk)
        np.testing.assert_array_equal(got, self._one_shot(tags, readers, gamma))

    def test_system_coverage_is_the_chunked_matrix(self):
        rng = np.random.default_rng(3)
        readers = rng.uniform(0, 100, size=(40, 2))
        tags = rng.uniform(0, 100, size=(COVERAGE_CHUNK // 40 * 3 + 1, 2))
        gamma = rng.uniform(1.0, 9.0, size=40)
        system = build_system(readers, gamma, gamma, tags)
        np.testing.assert_array_equal(
            system.coverage, self._one_shot(tags, readers, gamma)
        )


class TestReducedSystems:
    """The fault path's candidate views: the latest pattern per key."""

    @staticmethod
    def _system():
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 30, size=(8, 2))
        R = rng.uniform(3.0, 6.0, size=8)
        return build_system(pos, R, R / 2, rng.uniform(0, 30, size=(50, 2)))

    def test_reduced_system_matches_build_system(self):
        system = self._system()
        suspected = np.zeros(8, dtype=bool)
        suspected[[1, 4]] = True
        reduced, live = ReducedSystems().get(system, suspected)
        np.testing.assert_array_equal(live, [0, 2, 3, 5, 6, 7])
        want = build_system(
            system.reader_positions[live],
            system.interference_radii[live],
            system.interrogation_radii[live],
            system.tag_positions,
        )
        for name in ("coverage", "in_interference_range", "conflict",
                     "reader_positions", "tag_positions"):
            np.testing.assert_array_equal(
                getattr(reduced, name), getattr(want, name), err_msg=name
            )

    def test_keeps_only_the_latest_pattern_per_key(self):
        system = self._system()
        views = ReducedSystems()
        a = np.zeros(8, dtype=bool)
        a[0] = True
        b = np.zeros(8, dtype=bool)
        b[3] = True
        first = views.get(system, a)[0]
        assert views.get(system, a.copy())[0] is first
        other = views.get(system, b, key=1)[0]
        assert views.get(system, a)[0] is first  # another key's pattern
        views.get(system, b)
        assert views.get(system, a)[0] is not first
        assert views.get(system, b, key=1)[0] is other
        views.clear()
        assert views.get(system, b, key=1)[0] is not other

    def test_all_suspected_leaves_no_system(self):
        system = self._system()
        reduced, live = ReducedSystems().get(system, np.ones(8, dtype=bool))
        assert reduced is None and live.size == 0
