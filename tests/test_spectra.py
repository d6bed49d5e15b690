"""Spectrum tables: CSV ingestion, heat super-traces with certified tail
bounds, spectral gaps, and the built-in circle-bundle model."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crtorsion.errors import DomainError, EmptyDegreeError, ParseError
from crtorsion.spectra import (
    CP1_VOLUME,
    FiniteTail,
    GeometryModel,
    QuadraticTail,
    SpectrumTable,
    cp1_geometry,
    cp1_spectrum,
    decay_certificate,
    dump_geometry,
    heat_supertrace_N,
    ingest_spectrum,
    load_geometry,
    spectral_gap,
    supertrace_trust_floor,
    trace_degree,
    trace_degree_nodes,
)
from crtorsion.tails import QuadraticLaw, tail_bound

from law_listing import listed


class TestIngest:
    def test_roundtrip_single_row(self):
        spec = ingest_spectrum(b"q,lambda,mult\n1,3.0,4\n", n=1)
        assert spec.lines.tolist() == [(1, 3.0, 4)]
        assert isinstance(spec.tail, FiniteTail)

    def test_negative_eigenvalue_rejected_with_row(self):
        with pytest.raises(ParseError) as err:
            ingest_spectrum("q,lambda,mult\n0,-1.0,2\n", n=1)
        assert err.value.row == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_eigenvalue_rejected_with_row(self, bad):
        # nan passes a plain lam < 0 test; the sums would then drop the line
        with pytest.raises(ParseError) as err:
            ingest_spectrum(f"q,lambda,mult\n1,3.0,1\n1,{bad},2\n", n=1)
        assert err.value.row == 3

    def test_bad_mult_and_degree(self):
        with pytest.raises(ParseError):
            ingest_spectrum("q,lambda,mult\n0,1.0,0\n", n=1)
        with pytest.raises(ParseError):
            ingest_spectrum("q,lambda,mult\n2,1.0,1\n", n=1)

    def test_duplicates_merged(self):
        spec = ingest_spectrum("q,lambda,mult\n1,3.0,2\n1,3.0,3\n", n=1)
        assert spec.lines.tolist() == [(1, 3.0, 5)]

    def test_comments_and_blank_lines(self):
        text = "# a comment\nq,lambda,mult\n\n0,1.5,2\n# trailing\n"
        spec = ingest_spectrum(io.BytesIO(text.encode()), n=1)
        assert spec.lines.tolist() == [(0, 1.5, 2)]

    def test_missing_header(self):
        with pytest.raises(ParseError):
            ingest_spectrum("0,1.0,1\n", n=1)

    def test_sorted_by_degree_then_eigenvalue(self):
        spec = ingest_spectrum(
            "q,lambda,mult\n1,2.0,1\n0,5.0,1\n0,1.0,1\n", n=1
        )
        assert [(l["q"], l["lam"]) for l in spec.lines] == [(0, 1.0), (0, 5.0), (1, 2.0)]


def _dict_merge(rows):
    """Reference table: merge duplicate (q, lam) keys in a dict, line by
    line, then sort the keys."""
    merged = {}
    for q, lam, mult in rows:
        merged[(q, lam)] = merged.get((q, lam), 0) + mult
    return [(q, lam, merged[(q, lam)]) for (q, lam) in sorted(merged)]


_ROWS = st.lists(
    st.tuples(
        st.integers(0, 2),
        # a small pool forces duplicate keys and zero eigenvalues
        st.one_of(st.sampled_from([0.0, 1.5, 2.0, 7.25]), st.floats(0.0, 1e6)),
        st.integers(1, 9),
    ),
    max_size=40,
)


class TestFromLines:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=_ROWS, data=st.data())
    def test_matches_dict_merge(self, rows, data):
        shuffled = data.draw(st.permutations(rows))
        want = _dict_merge(shuffled)
        assert SpectrumTable.from_lines(shuffled, n=2).lines.tolist() == want
        columns = np.array(shuffled, dtype=float).reshape(-1, 3)
        assert SpectrumTable.from_lines(columns, n=2).lines.tolist() == want

    def test_columns_are_read_only(self):
        rows = listed(cp1_spectrum(3, 4)).tolist()
        spec = SpectrumTable.from_lines(rows, n=1)
        with pytest.raises(ValueError):
            spec.lines["lam"][0] = 1.0
        with pytest.raises(ValueError):
            spec.lines["mult"][:] = 1
        with pytest.raises(ValueError):
            spec.lines["q"][0] = 0
        with pytest.raises(ValueError):
            cp1_spectrum(3, 4).stored["lam"][0] = 1.0
        assert spec.lines.tolist() == rows

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        with pytest.raises(DomainError):
            SpectrumTable.from_lines([(1, 3.0, 1), (1, bad, 2)], n=1)

    def test_invalid_lines_rejected(self):
        for row in ((2, 1.0, 1), (-1, 1.0, 1), (1, -1.0, 1), (1, 1.0, 0), (1, 1.0, 1e30)):
            with pytest.raises(DomainError):
                SpectrumTable.from_lines([(0, 1.0, 1), row], n=1)

    @pytest.mark.parametrize(
        "row, ok",
        [((1.5, 3.0, 2), False), ((1, 3.0, 2.7), False), ((1.0, 3.0, 2.0), True)],
    )
    def test_non_integer_degree_or_multiplicity_rejected(self, row, ok):
        if ok:
            spec = SpectrumTable.from_lines([row], n=1)
            assert spec.lines.tolist() == [(1, 3.0, 2)]
        else:
            with pytest.raises(DomainError, match="non-integer"):
                SpectrumTable.from_lines([(0, 1.0, 1), row], n=1)

    def test_empty_table(self):
        spec = SpectrumTable.from_lines([], n=1)
        assert spec.lines.tolist() == []
        assert spec.supertrace_N_kernel() == 0.0
        assert SpectrumTable.from_lines(np.empty((0, 3)), n=1).lines.tolist() == []

    @pytest.mark.parametrize(
        "lines, shape",
        [
            # two columns were read as the rows (0, 1.0, 1) and (2, 1.0, 3)
            (np.array([[0, 1.0], [1, 2.0], [1, 3.0]]), r"\(3, 2\)"),
            # four columns were read as four rows
            (np.array([[0, 1.0, 1, 0], [1, 2.0, 1, 0], [1, 3.0, 2, 1]]), r"\(3, 4\)"),
            # one flat triple is not a table of rows
            (np.array([0, 1.0, 1]), r"\(3,\)"),
            (np.zeros((2, 3, 1)), r"\(2, 3, 1\)"),
        ],
        ids=["two-columns", "four-columns", "flat-triple", "three-dims"],
    )
    def test_rows_of_the_wrong_shape_rejected(self, lines, shape):
        with pytest.raises(DomainError, match=shape):
            SpectrumTable.from_lines(lines, n=1)

    def test_row_of_the_wrong_length_rejected(self):
        # numpy's bare ValueError for a ragged list becomes a DomainError
        for lines in ([(0, 1.0, 1), (1, 2.0)], [(0, 1.0, 1), (1, 2.0, 1, 4)]):
            with pytest.raises(DomainError, match=r"\(N, 3\)"):
                SpectrumTable.from_lines(lines, n=1)
        with pytest.raises(DomainError, match=r"\(N, 3\)"):
            SpectrumTable.from_lines([(0, "one", 1)], n=1)

    def test_a_tables_own_lines_rebuild_it(self):
        # a table's lines are a plain structured array, read by field name
        spec = SpectrumTable.from_lines([(1, 3.0, 2), (0, 1.5, 1), (1, 3.0, 1)], n=1)
        assert type(spec.lines) is np.ndarray and spec.lines.dtype.names == ("q", "lam", "mult")
        again = SpectrumTable.from_lines(spec.lines, n=1)
        assert again.lines.tolist() == spec.lines.tolist() == [(0, 1.5, 1), (1, 3.0, 3)]
        assert again.lines.dtype == spec.lines.dtype
        assert SpectrumTable.from_lines(spec.lines[::-1], n=1).lines.tolist() == spec.lines.tolist()
        law = cp1_spectrum(3, 4)
        rebuilt = SpectrumTable.from_law(law.stored, n=1, tail=law.tail)
        assert rebuilt.stored.tolist() == [(0, 0.0, 4)]

    def test_structured_array_needs_the_line_fields_in_one_dimension(self):
        spec = SpectrumTable.from_lines([(1, 3.0, 2), (0, 1.5, 1)], n=1)
        with pytest.raises(DomainError, match=r"^a structured .* got shape \(1, 2\)"):
            SpectrumTable.from_lines(spec.lines.reshape(1, 2), n=1)
        other = np.zeros(2, dtype=[("q", np.int64), ("lam", np.float64), ("m", np.int64)])
        with pytest.raises(DomainError, match=r"^a structured .* fields \('q', 'lam', 'm'\)"):
            SpectrumTable.from_lines(other, n=1)


class TestHeatSupertrace:
    def test_single_line_value(self):
        spec = SpectrumTable.from_lines([(1, 2.0, 3)], n=1)
        for t in (0.1, 1.0, 3.0):
            tv = heat_supertrace_N(spec, t, False)
            assert tv.value == pytest.approx(-3.0 * math.exp(-2.0 * t), rel=1e-15)
            assert tv.tail_bound == 0.0

    def test_degree_zero_only_vanishes(self):
        spec = SpectrumTable.from_lines([(0, 1.0, 2), (0, 0.0, 5)], n=1)
        assert heat_supertrace_N(spec, 0.7, False).value == 0.0

    def test_nonzero_only_differs_by_kernel_constant(self):
        # the difference is the t-independent zero-mode super trace, with the
        # sign fixed by the defining sum (-1)^q q mult e^{-lam t}
        spec = SpectrumTable.from_lines(
            [(1, 0.0, 2), (1, 3.0, 1), (0, 0.0, 7)], n=2
        )
        const = spec.supertrace_N_kernel()
        assert const == pytest.approx(-2.0)
        for t in (0.3, 2.0):
            full = heat_supertrace_N(spec, t, False).value
            perp = heat_supertrace_N(spec, t, True).value
            assert full - perp == pytest.approx(const, abs=1e-14)

    def test_invalid_t(self):
        # nan passes a plain t <= 0 test; it must raise, not return nan
        spec = SpectrumTable.from_lines([(1, 1.0, 1)], n=1)
        for t in (math.nan, math.inf, 0.0, -1.0):
            for nonzero_only in (False, True):
                with pytest.raises(DomainError):
                    heat_supertrace_N(spec, t, nonzero_only)
            with pytest.raises(DomainError):
                trace_degree(spec, 1, t)

    @pytest.mark.parametrize("name", ["cp1_m0", "cp1_m8", "cp1_m128", "random_n2"])
    def test_matches_fsum_reference(self, name):
        # reference: exactly rounded sum over *all* listed lines under the
        # lam t < 745 underflow mask; the tail bound is weight * tail_bound
        if name == "random_n2":
            rng = np.random.default_rng(41)
            lines = [
                (int(rng.integers(0, 3)), float(rng.uniform(0.3, 40.0)), int(rng.integers(1, 6)))
                for _ in range(60)
            ]
            lines += [(0, 0.0, 3), (1, 0.0, 2), (2, 0.0, 2)]
            spec = SpectrumTable.from_lines(lines, n=2)
            assert {l["q"] for l in spec.lines if l["lam"] > 0} == {0, 1, 2}
            assert spec.supertrace_N_kernel() == 2.0
        else:
            m = int(name[len("cp1_m"):])
            spec = cp1_spectrum(m, max(1024, m * m))
        lam_min = min(spectral_gap(spec, q) for q in range(spec.n + 1))
        t_dead = 1000.0 / lam_min  # every term underflows
        rows = listed(spec).tolist()
        for t in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 1e2, 1e3, t_dead):
            if isinstance(spec.tail, QuadraticTail):
                weight = sum(q for q in spec.tail.degrees if q >= 1)
                want_bound = weight * tail_bound(spec.tail.law, spec.tail.k_next, t)
            else:
                want_bound = 0.0
            for nonzero_only in (False, True):
                terms = [
                    (-1) ** q * q * mult * math.exp(-lam * t)
                    for q, lam, mult in rows
                    if lam * t < 745.0 and not (nonzero_only and lam == 0.0)
                ]
                tv = heat_supertrace_N(spec, t, nonzero_only)
                assert tv.tail_bound == want_bound
                scale = math.fsum(abs(x) for x in terms)
                assert abs(tv.value - math.fsum(terms)) <= 1e-13 * scale
                if t == t_dead:
                    assert tv.value == (0.0 if nonzero_only else spec.supertrace_N_kernel())

    @pytest.mark.parametrize("name", ["cp1_m8", "cp1_m128", "random_n2"])
    def test_array_kernel_matches_fsum_reference(self, name):
        # one call on an unsorted array with repeats and an all-underflow
        # node: each node keeps its own lam t < 745 cut
        if name == "random_n2":
            rng = np.random.default_rng(41)
            lines = [
                (int(rng.integers(0, 3)), float(rng.uniform(0.3, 40.0)), int(rng.integers(1, 6)))
                for _ in range(60)
            ]
            spec = SpectrumTable.from_lines(lines + [(1, 0.0, 2)], n=2)
        else:
            m = int(name[len("cp1_m"):])
            spec = cp1_spectrum(m, max(1024, m * m))
        t_dead = 1000.0 / min(spectral_gap(spec, q) for q in range(spec.n + 1))
        t = np.array([0.1, 1e-6, 10.0, t_dead, 1e-3, 0.1, 3e-5, 1.0, 1e-6, 2e-2])
        got = spec._supertrace_value(t)
        assert got.shape == t.shape and got.dtype == np.float64
        rows = listed(spec).tolist()
        for ti, value in zip(t.tolist(), got.tolist()):
            terms = [
                (-1) ** q * q * mult * math.exp(-lam * ti)
                for q, lam, mult in rows
                if lam > 0.0 and lam * ti < 745.0
            ]
            scale = math.fsum(abs(x) for x in terms)
            assert abs(value - math.fsum(terms)) <= 1e-13 * scale
        assert got[3] == 0.0
        assert got[0] == got[5] and got[1] == got[8]
        # a one-node call reads the same terms (its block may be narrower,
        # which moves the pairwise sum's rounding only)
        for ti, value in zip(t.tolist(), got.tolist()):
            assert heat_supertrace_N(spec, ti, True).value == pytest.approx(value, rel=1e-13, abs=0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["lines_n1", "lines_n2", "law_extra", "law_vertex"]),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([3, 16, 1 << 15]),
        degree=st.integers(0, 2),
        nonzero_only=st.booleans(),
    )
    def test_kernel_matches_fsum_on_random_tables(self, kind, seed, chunk, degree, nonzero_only):
        # each node within 1e-13 sum |terms| of the exact sum over every line
        # with lam t < 745, for the super trace and for the plain trace of
        # one degree: finite tables with mixed-sign weights, equal
        # eigenvalues in several degrees and lines past the underflow cut;
        # law tables with extra stored rows; a law whose vertex lies inside
        # its block.  Small chunks read the law in many pieces.
        from crtorsion import spectra

        spec = _kernel_table(kind, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        t = np.exp(rng.uniform(math.log(1e-7), math.log(50.0), 40))
        q = degree % (spec.n + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_CHUNK", chunk)
            got = spec._supertrace_value(t)
            values, _ = trace_degree_nodes(spec, q, t, nonzero_only)
        lines = listed(spec)
        q_col = lines["q"]
        w = np.where(q_col % 2, -q_col, q_col) * lines["mult"]
        rows = list(zip(w.tolist(), lines["lam"].tolist(), lines["mult"].tolist(), q_col.tolist()))
        for i, ti in enumerate(t.tolist()):
            _assert_near_fsum(
                got[i], [wi * math.exp(-lam * ti) for wi, lam, _, _ in rows if 0 < lam * ti < 745]
            )
            _assert_near_fsum(
                values[i],
                [
                    mult * math.exp(-lam * ti)
                    for _, lam, mult, qi in rows
                    if qi == q and lam * ti < 745.0 and (lam > 0.0 or not nonzero_only)
                ],
            )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["lines_n1", "lines_n2", "law_extra", "law_vertex", "cp1"]),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([3, 16, 1 << 15]),
        size=st.integers(2, 40),
    )
    def test_node_value_does_not_follow_its_batch(self, kind, seed, chunk, size):
        # each node of a random batch, bit for bit, against a call with it
        # alone: law runs of any length (k_next - 1 lines, or 4 m on the
        # circle bundle at m >= 257), nodes whose cut falls at the underflow
        # (lam_1 t up to 740) and nodes that share no block
        from crtorsion import spectra

        rng = np.random.default_rng(seed)
        if kind == "cp1":
            spec = cp1_spectrum(int(rng.integers(1, 1500)))
        else:
            spec = _kernel_table(kind, rng)
        lam_1 = spec._supertrace.lam_1
        t = np.exp(rng.uniform(math.log(1e-7), math.log(50.0), size))
        t[: size // 4] = rng.uniform(100.0, 740.0, size // 4) / lam_1
        rng.shuffle(t)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_CHUNK", chunk)
            got = spec._supertrace_value(t)
            alone = [spec._supertrace_value(t[i : i + 1])[0] for i in range(size)]
        assert [x.hex() for x in got.tolist()] == [float(x).hex() for x in alone]

    def test_array_kernel_temporaries_stay_under_cap(self):
        # at m = 512 the floor nodes read all 2^18 law lines, generated in
        # chunks; the kernel's temporaries are one float64 buffer of _BLOCK
        # elements (a chunk's column indices, lam and weights, and the
        # e^{-lam t} block), the block's bool mask, per-node arrays and
        # numpy's 8192-element casting buffer
        import tracemalloc

        from crtorsion.spectra import _BLOCK

        spec = cp1_spectrum(512, 512 * 512)
        spec._supertrace  # the cached table summary is not a temporary
        t = np.geomspace(1e-9, 10.0, 200)
        tracemalloc.start()
        try:
            spec._supertrace_value(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * _BLOCK + (1 << 17)

    def test_tail_consistency_between_truncations(self):
        coarse = cp1_spectrum(10, 2000)
        fine = cp1_spectrum(10, 4000)
        for t in (2e-6, 1e-5, 1.0):
            v_coarse = heat_supertrace_N(coarse, t, True)
            v_fine = heat_supertrace_N(fine, t, True)
            assert abs(v_fine.value - v_coarse.value) <= v_coarse.tail_bound + 1e-13

    def test_long_time_decay_bound(self):
        # per-degree traces: Tr^{(q)}(t) <= e^{-lam_min t/2} Tr^{(q)}(delta/2)
        # for t >= delta; the supertrace inherits it for single-degree spectra
        rng = np.random.default_rng(9)
        for _ in range(10):
            lines = [
                (1, float(rng.uniform(0.5, 8.0)), int(rng.integers(1, 4)))
                for _ in range(12)
            ]
            spec = SpectrumTable.from_lines(lines, n=1)
            lam_min = spectral_gap(spec, 1)
            delta = 0.5
            ref = abs(heat_supertrace_N(spec, delta / 2, True).value)
            for t in (0.5, 1.0, 3.0, 10.0):
                lhs = abs(heat_supertrace_N(spec, t, True).value)
                assert lhs <= ref * math.exp(-lam_min * t / 2) + 1e-300

    def test_decay_certificate_is_honest(self):
        spec = cp1_spectrum(6, 400)
        C, c = decay_certificate(spec)
        for t in (1.0, 2.5, 7.0):
            assert abs(heat_supertrace_N(spec, t, True).value) <= C * math.exp(-c * t)
        # the rescaled route certifies from t_min = 1/m
        for m in (8, 64):
            spec = cp1_spectrum(m, max(1024, m * m))
            C, c = decay_certificate(spec, t_min=1.0 / m)
            for t in (1.0 / m, 2.5 / m, 7.0 / m, 1.0, 3.0):
                assert abs(heat_supertrace_N(spec, t, True).value) <= C * math.exp(-c * t)

    @pytest.mark.parametrize("t_min", [1.0, 1.0 / 8, 1.0 / 64])
    @pytest.mark.parametrize("index", range(16))
    def test_decay_certificate_on_random_tables(self, index, t_min):
        # finite n = 1, 2 tables with degree-0 lines below every weighted line
        # and lines past the underflow cut, general-law tables with extra
        # stored rows, and law tables cut at k_next = 2 ... 30, whose omitted
        # lines carry a large part of the trace at small t: c is the smallest
        # weighted eigenvalue, and C e^{-c t} bounds the super trace of every
        # line, omitted ones included, for t >= t_min
        spec = _certificate_table(index)
        C, c = decay_certificate(spec, t_min)
        lines = listed(spec)
        weighted = lines["lam"][(lines["q"] >= 1) & (lines["lam"] > 0.0)]
        assert c == weighted.min()
        if not spec.implied:
            assert spectral_gap(spec, 0) < weighted.min()
        whole = spec
        if spec.implied and spec.tail.k_next < 201:
            # the same law and rows to k = 4999, past the underflow at t_min
            tail = dataclasses.replace(spec.tail, k_next=5000)
            whole = SpectrumTable.from_law(spec.stored, n=1, tail=tail)
        assert C >= spec._supertrace.abs_weight
        for t in t_min * np.array([1.0, 1.25, 2.0, 3.0, 8.0, 40.0, 300.0]):
            value = heat_supertrace_N(whole, float(t), True).value
            # the product of the two exponentials may round below the exact
            # e^{-lam t} of a dominant line by a few ulps
            assert abs(value) <= C * math.exp(-c * t) * (1.0 + 1e-12)

    @pytest.mark.parametrize("index", range(16))
    def test_decay_certificate_reads_no_line(self, index, monkeypatch):
        # C and c come from the record's closed-form sum |w| and lam_1 and
        # the omitted lines' tail bound: no run is read
        from crtorsion import spectra

        def refuse(*args):
            raise AssertionError("decay_certificate read a line")

        for spec in (_certificate_table(index), cp1_spectrum(index + 1), cp1_spectrum(1000)):
            spec._supertrace  # the record is built on the table, not read
            with monkeypatch.context() as mp:
                mp.setattr(spectra._LawRun, "read", refuse)
                mp.setattr(spectra._StoredRun, "read", refuse)
                C, c = decay_certificate(spec, 1.0 / 64)
            assert (C, c) == decay_certificate(spec, 1.0 / 64)
            assert math.isfinite(C) and C >= spec._supertrace.abs_weight and c > 0.0

    def test_decay_certificate_of_a_table_without_weighted_lines(self):
        spec = SpectrumTable.from_lines([(0, 2.0, 3), (1, 0.0, 2)], n=1)
        assert decay_certificate(spec, 1.0) == (0.0, 1.0)

    def test_trust_floor_certifies(self):
        spec = cp1_spectrum(8, 500)
        floor = supertrace_trust_floor(spec, 1e-12)
        assert heat_supertrace_N(spec, floor, True).tail_bound <= 1e-12



class TestTraceDegree:
    @pytest.mark.parametrize("m, k_max", [(0, 64), (8, 500), (128, 2048)])
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("nonzero_only", [False, True])
    def test_nodes_match_masked_sum_per_node(self, m, k_max, q, nonzero_only):
        # each node within 1e-13 sum |terms| of the exact sum of
        # mult e^{-lam t} over the degree-q lines with lam t < 745, and bit
        # for bit the one-node trace; the nodes reach past the cut of the
        # top lines
        spec = cp1_spectrum(m, k_max)
        t = np.geomspace(1e-4, 2.0, 37)
        values, bounds = trace_degree_nodes(spec, q, t, nonzero_only)
        lines = listed(spec)
        lines = lines[(lines["q"] == q) & ((lines["lam"] > 0.0) | (not nonzero_only))]
        for i, s in enumerate(t.tolist()):
            _assert_near_fsum(
                values[i],
                [
                    mult * math.exp(-lam * s)
                    for lam, mult in zip(lines["lam"].tolist(), lines["mult"].tolist())
                    if lam * s < 745.0
                ],
            )
            assert bounds[i] == tail_bound(spec.tail.law, spec.tail.k_next, s)
            assert trace_degree(spec, q, s, nonzero_only) == (values[i], bounds[i])

    def test_finite_table_has_no_tail_bound(self):
        spec = SpectrumTable.from_lines([(0, 1.0, 2), (1, 2.0, 1)], n=1)
        values, bounds = trace_degree_nodes(spec, 0, [0.5, 1.0])
        assert values.tolist() == [2 * math.exp(-0.5), 2 * math.exp(-1.0)]
        assert bounds.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_node_rejected(self, bad):
        spec = cp1_spectrum(8, 64)
        with pytest.raises(DomainError, match="trace_degree"):
            trace_degree_nodes(spec, 0, [0.1, bad, 0.2])

    @pytest.mark.parametrize("q", [2, -1, 0.5, 1.0])
    def test_invalid_degree_rejected(self, q):
        # a degree outside 0..n or not an integer was a quiet (0.0, 0.0)
        spec = cp1_spectrum(8)
        with pytest.raises(DomainError, match=r"\bq="):
            trace_degree(spec, q, 0.1)
        with pytest.raises(DomainError, match=r"\bq="):
            trace_degree_nodes(spec, q, [0.1, 0.2], nonzero_only=False)
        with pytest.raises(DomainError, match=r"\bq="):
            spectral_gap(spec, q)


def _assert_near_fsum(value, terms):
    """``value`` within 1e-13 sum |terms| of the exactly rounded sum."""
    scale = math.fsum(abs(x) for x in terms)
    assert abs(value - math.fsum(terms)) <= 1e-13 * scale


def _kernel_table(kind: str, rng) -> SpectrumTable:
    """A random table of ``TestHeatSupertrace``'s kernel property test."""
    if kind.startswith("lines"):
        n = int(kind[-1])
        lines = [
            (int(rng.integers(0, n + 1)), float(rng.uniform(0.2, 80.0)), int(rng.integers(1, 6)))
            for _ in range(int(rng.integers(1, 60)))
        ]
        # equal eigenvalues in other degrees, and lines past every cut
        lines += [(int(rng.integers(0, n + 1)), lam, 2) for _, lam, _ in lines[:5]]
        lines += [(n, float(rng.uniform(1e4, 1e12)), 1) for _ in range(3)]
        lines += [(0, 0.0, 2)]
        return SpectrumTable.from_lines(lines, n=n)
    k_next = int(rng.integers(2, 400))
    if kind == "law_vertex":
        vertex = float(rng.uniform(1.0, k_next))
        a2 = float(rng.choice([0.25, 1.0, 3.7]))
        a0 = a2 * vertex * vertex + float(rng.uniform(0.1, 30.0))
        m1, m0 = float(rng.integers(0, 4)), float(rng.integers(1, 9))
        law = QuadraticLaw(a2, -2.0 * a2 * vertex, a0, m1, m0)
        extra = []
    else:
        law = QuadraticLaw(
            float(rng.choice([0.25, 1.0, 3.7])),
            float(rng.uniform(0.0, 40.0)),
            float(rng.uniform(-0.2, 20.0)),
            float(rng.integers(0, 4)),
            float(rng.integers(1, 20)),
        )
        extra = [
            (int(rng.integers(0, 2)), float(rng.uniform(0.1, 60.0)), int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(0, 8)))
        ]
    tail = QuadraticTail(k_next, law, (0, 1), covers_all_lines=True)
    return SpectrumTable.from_law(extra, n=1, tail=tail)


def _certificate_table(index: int) -> SpectrumTable:
    """Table ``index`` of sixteen: four finite n = 1, four finite n = 2, four
    law-backed n = 1 to k_next = 201 and four cut at k_next = 2, 4, 9 and
    30."""
    rng = np.random.default_rng(2026 + index)
    if index < 8:
        n = 1 + index // 4
        lines = [
            (int(rng.integers(1, n + 1)), float(rng.uniform(0.5, 40.0)), int(rng.integers(1, 6)))
            for _ in range(30)
        ]
        # lam t_min >= 745 already at t_min = 1 / 64
        lines += [(int(rng.integers(1, n + 1)), float(rng.uniform(1e5, 1e6)), 2) for _ in range(3)]
        low = min(lam for _, lam, _ in lines)
        lines += [(0, float(rng.uniform(0.01, low)), int(rng.integers(1, 4))) for _ in range(5)]
        lines += [(0, 0.0, 2), (1, 0.0, 1)]
        return SpectrumTable.from_lines(lines, n=n)
    law = QuadraticLaw(
        float(rng.choice([0.25, 1.0, 3.7])),
        float(rng.uniform(0.0, 40.0)),
        float(rng.uniform(-0.2, 20.0)),
        float(rng.integers(0, 4)),
        float(rng.integers(1, 20)),
    )
    extra = [
        (int(rng.integers(0, 2)), float(rng.uniform(0.1, 60.0)), int(rng.integers(1, 5)))
        for _ in range(6)
    ]
    k_next = 201 if index < 12 else (2, 4, 9, 30)[index - 12]
    tail = QuadraticTail(k_next, law, (0, 1), covers_all_lines=True)
    return SpectrumTable.from_law(extra, n=1, tail=tail)


class TestSpectralGap:
    def test_single_line(self):
        spec = SpectrumTable.from_lines([(1, 3.0, 4)], n=1)
        assert spectral_gap(spec, 1) == 3.0

    def test_empty_degree(self):
        spec = SpectrumTable.from_lines([(0, 1.0, 1)], n=1)
        with pytest.raises(EmptyDegreeError):
            spectral_gap(spec, 1)

    def test_cp1_gap_closed_form(self):
        for m in (1, 4, 16):
            spec = cp1_spectrum(m, 8)
            assert spectral_gap(spec, 1) == pytest.approx(m + 2.0)

    def test_gap_of_a_large_weight_reads_no_line_block(self):
        # the law's first line, not a list of the table's 2^25 + 1 rows
        import tracemalloc

        tracemalloc.start()
        try:
            gap = spectral_gap(cp1_spectrum(2**22), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap == 4194306.0
        assert peak < 1 << 20

    def test_gap_linear_lower_bound(self):
        ms = np.arange(4, 65)
        gaps = np.array([spectral_gap(cp1_spectrum(int(m), 4), 1) for m in ms])
        slope, intercept = np.polyfit(ms, gaps, 1)
        assert slope >= 0.9
        assert np.all(gaps >= slope * ms - (slope * ms - gaps).max() - 1e-9)


def _flat(views):
    """The arrays and scalars of ``views``, tuples unpacked."""
    return [x for v in views for x in (v if isinstance(v, tuple) else (v,))]


class TestCp1Model:
    def test_kernel_dimension_and_purity(self):
        for m in (0, 1, 5):
            spec = cp1_spectrum(m, 16)
            zero_lines = [l for l in listed(spec) if l["lam"] == 0.0]
            assert len(zero_lines) == 1
            assert zero_lines[0]["q"] == 0
            assert zero_lines[0]["mult"] == m + 1
            assert spec.supertrace_N_kernel() == 0.0

    @pytest.mark.parametrize("m", [0, 3, 37])
    def test_rows_match_closed_form(self, m):
        k_max = 60
        law = [(float(k) * (k + m + 1), m + 2 * k + 1) for k in range(1, k_max + 1)]
        want = [(0, 0.0, m + 1)] + [(0, *row) for row in law] + [(1, *row) for row in law]
        assert listed(cp1_spectrum(m, k_max)).tolist() == want

    def test_m0_is_round_sphere_law(self):
        spec = cp1_spectrum(0, 6)
        deg0 = [(l["lam"], l["mult"]) for l in listed(spec) if l["q"] == 0 and l["lam"] > 0]
        assert deg0 == [(float(k * (k + 1)), 2 * k + 1) for k in range(1, 7)]

    def test_degrees_mirror_nonzero_lines(self):
        spec = cp1_spectrum(3, 10)
        lines = listed(spec)
        deg0 = {(l["lam"], l["mult"]) for l in lines if l["q"] == 0 and l["lam"] > 0}
        deg1 = {(l["lam"], l["mult"]) for l in lines if l["q"] == 1}
        assert deg0 == deg1

    @pytest.mark.parametrize("m", [0, 1, 32, 255, 256, 257, 1024, 4096, 2**22])
    def test_default_table_length(self, m):
        # one rule, k_max = max(1024, 4 m); the law block is never listed
        spec = cp1_spectrum(m)
        assert spec.tail.k_next == max(1024, 4 * m) + 1
        assert spec.tail == cp1_spectrum(m, max(1024, 4 * m)).tail
        with pytest.raises(DomainError, match="`stored`.*`tail`"):
            spec.lines

    def test_validation(self):
        with pytest.raises(DomainError):
            cp1_spectrum(-1, 4)
        with pytest.raises(DomainError):
            cp1_spectrum(3, 0)

    @pytest.mark.parametrize("args, name", [
        ((3, 2.5), "k_max"),
        ((3, 64.0), "k_max"),
        ((2.5, 64), "m"),
        ((3.0, 64), "m"),
    ])
    def test_non_integer_argument_named(self, args, name):
        # k_max = 2.5 built a tail with k_next = 3.5, and m = 2.5 blamed a
        # law multiplicity 5.5 the caller never passed
        with pytest.raises(DomainError, match=rf"\b{name}="):
            cp1_spectrum(*args)

    @pytest.mark.parametrize("k_max", [1, 4, 1024])
    @pytest.mark.parametrize("m", [0, 1, 8, 128])
    def test_law_backed_table_matches_stored_rows(self, m, k_max):
        # only the kernel row is stored, and the kernel caches no law line;
        # its values and every view of the law block agree exactly with a
        # table that stores all rows
        spec = cp1_spectrum(m, k_max)
        assert spec.stored.tolist() == [(0, 0.0, m + 1)]
        assert not any(isinstance(x, np.ndarray) for run in spec._supertrace.runs for x in run)
        t = np.geomspace(1e-7, 50.0, 61)[::-1]
        views = (
            spec._supertrace_value(t),
            spec._supertrace[1:],
            spec._outside_law,
            decay_certificate(spec, 1.0),
            decay_certificate(spec, 1.0 / max(m, 1)),
            spec.supertrace_N_kernel(),
        )
        stored = SpectrumTable.from_lines(listed(spec).tolist(), n=1, tail=spec.tail)
        assert stored.lines.dtype == listed(spec).dtype
        assert np.array_equal(stored.lines, listed(spec))
        want = (
            stored._supertrace_value(t),
            stored._supertrace[1:],
            stored._outside_law,
            decay_certificate(stored, 1.0),
            decay_certificate(stored, 1.0 / max(m, 1)),
            stored.supertrace_N_kernel(),
        )
        for got, ref in zip(_flat(views), _flat(want), strict=True):
            assert np.array_equal(got, ref)
        assert spectral_gap(spec, 1) == spectral_gap(stored, 1)

    def test_from_law_validation(self):
        law = QuadraticLaw(a2=1.0, a1=3.0, a0=0.0, m1=2.0, m0=3.0)
        tail = QuadraticTail(k_next=5, law=law, degrees=(0, 1), covers_all_lines=True)
        assert listed(SpectrumTable.from_law([], n=1, tail=tail)).size == 8
        bad_tails = (
            dataclasses.replace(tail, covers_all_lines=False),
            dataclasses.replace(tail, degrees=(0, 2)),
            dataclasses.replace(tail, law=dataclasses.replace(law, m0=2.5)),
            dataclasses.replace(tail, law=dataclasses.replace(law, m0=-3.0)),
            dataclasses.replace(tail, law=dataclasses.replace(law, a1=-3.0)),
            # integer multiplicities 2 and 3 at k = 2 and 4, but 2.5 at k = 3
            dataclasses.replace(tail, law=QuadraticLaw(1.0, 3.0, 0.0, m1=0.5, m0=1.0), k_first=2),
        )
        for bad in bad_tails:
            with pytest.raises(DomainError):
                SpectrumTable.from_law([], n=1, tail=bad)
        with pytest.raises(DomainError):
            SpectrumTable.from_law([], n=1, tail=FiniteTail())
        # a stored line of the implied block would count twice
        with pytest.raises(DomainError, match="implied by the tail law"):
            SpectrumTable.from_law([(1, 10.0, 7)], n=1, tail=tail)
        # positivity is checked from k_first on even when the implied block is
        # empty: lam(21) = -309 here
        negative = QuadraticTail(21, QuadraticLaw(1.0, -36.0, 6.0, 2.0, 17.0), (0, 1), True, 21)
        with pytest.raises(DomainError, match="positive"):
            SpectrumTable.from_law([], n=1, tail=negative)
        with pytest.raises(DomainError, match="k_next = 5 < k_first = 21"):
            SpectrumTable.from_law([], n=1, tail=dataclasses.replace(tail, k_first=21))

    @pytest.mark.parametrize("m, K", [(1, 65), (32, 1025)])
    def test_law_anchored_above_stored_rows_is_refused(self, m, K):
        # every circle-bundle row k <= K - 1 stored and the law anchored at
        # k_first = K: the law's expansion coefficients would cancel against
        # the stored rows (bhat off by 2.0 and 2.1e13 before this check)
        rows = listed(cp1_spectrum(m, K - 1)).tolist()
        tail = dataclasses.replace(cp1_spectrum(m, K - 1).tail, k_first=K, k_next=K)
        message = (
            rf"line \(0, {m + 2.0}, {m + 3}\) is the tail law's line k = 1, "
            rf"below k_first = {K}: start the law at k_first <= 1"
        )
        for build in (SpectrumTable.from_law, SpectrumTable.from_lines):
            with pytest.raises(DomainError, match=message):
                build(rows, n=1, tail=tail)
        # the same rows under the law from k_first = 1, and the kernel row
        # the law reproduces at k = 0, stay legal
        assert SpectrumTable.from_lines(rows, n=1, tail=cp1_spectrum(m, K - 1).tail)
        assert cp1_spectrum(m, K - 1).stored.tolist() == [(0, 0.0, m + 1)]

    @pytest.mark.parametrize(
        "degrees, weight", [((0, 1), -1), ((1, 2), 1), ((0, 1, 2), 1), ((2,), 2)]
    )
    def test_tail_weight(self, degrees, weight):
        # sum over the tail degrees of (-1)^q q
        law = QuadraticLaw(a2=1.0, a1=3.0, a0=0.0, m1=2.0, m0=3.0)
        assert QuadraticTail(5, law, degrees, covers_all_lines=True).weight == weight

    def test_rescaled_trace_approaches_model_density(self):
        # m^{-1} Tr^(0)[e^{-(t/m) Box}] -> vol (2 pi)^{-2} / (1 - e^{-t})
        t = 0.8
        want = 1.0 / (1.0 - math.exp(-t))
        vals = []
        for m in (16, 64, 256):
            spec = cp1_spectrum(m, 2048)
            vals.append(trace_degree(spec, 0, t / m, nonzero_only=False).value / m)
        errs = [abs(v - want) for v in vals]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] / want < 2e-2


class TestGeometry:
    def test_cp1_geometry_convention(self):
        g = cp1_geometry()
        assert g.volume == pytest.approx(4.0 * math.pi ** 2)
        assert g.levi.eigenvalues == (1.0,)
        assert CP1_VOLUME == pytest.approx(39.478417, abs=1e-6)

    def test_json_roundtrip(self, tmp_path):
        g = GeometryModel(2, cp1_geometry().levi.__class__(2, (1.0, 2.0)), 10.0, 3)
        path = tmp_path / "geom.json"
        path.write_text(dump_geometry(g))
        back = load_geometry(path)
        assert back == g

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "volume": 1.0}))
        with pytest.raises(DomainError):
            load_geometry(path)

    def test_validation(self):
        levi = cp1_geometry().levi
        with pytest.raises(DomainError):
            GeometryModel(1, levi, -1.0, 1)
        with pytest.raises(DomainError):
            GeometryModel(1, levi, 1.0, 0)
        for volume in (math.nan, math.inf):
            with pytest.raises(DomainError, match="volume must be positive and finite"):
                GeometryModel(1, levi, volume, 1)
