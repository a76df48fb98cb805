"""Embedded reference grid: counts, spot cells, relations, consistency."""

from pathlib import Path

import pytest

from ric_bounds import bt_relation, entries, lookup, reference_tables
from ric_bounds.bounds_simple import BOUND_KINDS
from ric_bounds.reference_tables import _KIND_SOURCES, reference_for_kind

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


class TestLoader:
    def test_total_cell_count(self):
        assert len(entries()) == 270

    def test_exact_counts_per_quantity(self):
        counts = {}
        for e in entries():
            counts[e.quantity] = counts.get(e.quantity, 0) + 1
        assert counts["xi_uric_BT"] == 25
        assert counts["xi_uric_u"] == 25
        assert counts["xi_uric_u_low"] == 25
        assert counts["xi_lric_BT"] == 20
        assert counts["xi_lric_l"] == 20
        assert counts["xi_lric_l_lift"] == 20
        assert counts["c3_opt"] == 45  # 25 upper cells + 20 lower cells
        assert counts["nu_opt"] == 45
        assert counts["gamma_opt"] == 45

    def test_keys_unique(self):
        keys = {(e.table_id, e.alpha, e.rho, e.quantity) for e in entries()}
        assert len(keys) == len(entries())


class TestLoaderRejections:
    """A corrupted asset fails on load with an error naming the fault.  Each
    case loads a corrupted copy of the asset from a temporary package
    directory, with the loader's caches cleared before and after."""

    @pytest.fixture
    def load_corrupted(self, tmp_path, monkeypatch):
        asset = Path(reference_tables.__file__).parent / "data" / "tables.csv"
        lines = asset.read_text().splitlines()
        (tmp_path / "data").mkdir()
        monkeypatch.setattr(reference_tables, "__file__", str(tmp_path / "reference_tables.py"))

        def load(corrupt):
            (tmp_path / "data" / "tables.csv").write_text("\n".join(corrupt(lines)) + "\n")
            return reference_tables._load()

        for cache in (reference_tables._load, reference_tables._kind_index):
            cache.cache_clear()
        yield load
        for cache in (reference_tables._load, reference_tables._kind_index):
            cache.cache_clear()

    @pytest.mark.parametrize("corrupt,message", [
        (lambda lines: [lines[0].replace("xi_uric_BT", "xi_bogus"), *lines[1:]],
         "unknown quantity in reference asset: 'xi_bogus'"),
        (lambda lines: [*lines, lines[0]], "duplicate reference cell"),
        (lambda lines: lines[:-1], "reference asset cell counts are wrong"),
        (lambda lines: [lines[0] + ",0", *lines[1:]], "values to unpack"),
    ], ids=["unknown-quantity", "duplicate-cell", "wrong-cell-counts", "wrong-field-count"])
    def test_rejects(self, load_corrupted, corrupt, message):
        with pytest.raises(ValueError, match=message):
            load_corrupted(corrupt)


class TestLookup:
    def test_spot_cells(self):
        assert lookup(1, 0.5, 0.3, "xi_uric_u") == 2.0560
        assert lookup(5, 0.9, 0.5, "xi_lric_l") == -0.002
        assert lookup(7, 0.1, 0.5, "c3_opt") == 37.468
        assert lookup(3, 0.1, 0.1, "nu_opt") == 11.375
        assert lookup(4, 0.9, 0.9, "xi_uric_u_low") == 2.0522

    def test_float_artifact_keys(self):
        assert lookup(1, 0.30000000000000004, 0.1, "xi_uric_u") == 1.8049

    def test_missing_key_names_the_cell(self):
        with pytest.raises(KeyError, match="table_id=7.*rho=0.2"):
            lookup(7, 0.1, 0.2, "c3_opt")


class TestBtRelation:
    def test_unit_isometry(self):
        assert bt_relation(1.0, "upper") == 0.0
        assert bt_relation(1.0, "lower") == 0.0

    def test_upper_from_table_cell(self):
        xi = lookup(1, 0.3, 0.1, "xi_uric_BT")  # 1.8970
        assert bt_relation(xi, "upper") == pytest.approx(1.8970**2 - 1.0, rel=1e-12)

    def test_lower_from_table_cell(self):
        xi = lookup(5, 0.1, 0.05, "xi_lric_BT")  # 0.4224
        assert bt_relation(xi, "lower") == pytest.approx(1.0 - 0.4224**2, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bt_relation(-0.1, "upper")
        with pytest.raises(ValueError):
            bt_relation(1.0, "sideways")


class TestGridConsistency:
    def test_optimized_upper_never_above_closed_form(self):
        for rho, simple_tid, lifted_tid in ((0.1, 1, 3), (0.3, 1, 3), (0.5, 1, 3), (0.7, 2, 4), (0.9, 2, 4)):
            for alpha in ALPHAS:
                assert lookup(lifted_tid, alpha, rho, "xi_uric_u_low") <= lookup(
                    simple_tid, alpha, rho, "xi_uric_u"
                )

    def test_optimized_lower_never_below_closed_form(self):
        for rho in (0.05, 0.1, 0.3, 0.5):
            for alpha in ALPHAS:
                assert lookup(7, alpha, rho, "xi_lric_l_lift") >= lookup(
                    5, alpha, rho, "xi_lric_l"
                )

    def test_closed_forms_mirror_across_tables(self):
        # The closed forms sum to exactly 2, so on the 15 cells shared by
        # tables 1 and 5 the printed values may differ from that by at most
        # half a unit in the last place of each (5e-5 + 5e-4).
        for rho in (0.1, 0.3, 0.5):
            for alpha in ALPHAS:
                total = lookup(5, alpha, rho, "xi_lric_l") + lookup(1, alpha, rho, "xi_uric_u")
                assert abs(total - 2.0) <= 5.5e-4, (alpha, rho, total)

    def test_reference_for_kind_routing(self):
        assert reference_for_kind("upper-simple", 0.1, 0.7) == 2.8709
        assert reference_for_kind("upper-lifted", 0.9, 0.9) == 2.0522
        assert reference_for_kind("lower-simple", 0.5, 0.3) == -0.056
        assert reference_for_kind("lower-lifted", 0.7, 0.05) == 0.5166
        assert reference_for_kind("lower-lifted", 0.7, 0.7) is None
        assert reference_for_kind("upper-simple", 0.2, 0.1) is None


def lookup_chain(kind, alpha, rho):
    """reference_for_kind as a chain of lookups: the first source in
    _KIND_SOURCES order that carries the cell, None where none does."""
    for table_id, quantity in _KIND_SOURCES.get(kind, ()):
        try:
            return lookup(table_id, alpha, rho, quantity)
        except KeyError:
            continue
    return None


class TestReferenceForKind:
    def test_equals_the_lookup_chain_at_every_asset_cell(self):
        cells = sorted({(e.alpha, e.rho) for e in entries()})
        assert len(cells) == 30
        found = 0
        for kind in BOUND_KINDS:
            for alpha, rho in cells:
                expected = lookup_chain(kind, alpha, rho)
                assert reference_for_kind(kind, alpha, rho) == expected, (kind, alpha, rho)
                found += expected is not None
        assert found == 25 + 25 + 20 + 20

    @pytest.mark.parametrize("alpha,rho", [
        (0.1 + 0.2, 0.1), (0.7, 0.1 + 0.2), (0.1 * 3, 0.3 * 3), (0.9, 0.7 + 1e-9),
        (0.2, 0.1), (0.5, 0.2), (0.3, 0.3000015), (1.0, 0.5), (0.0, 0.0),
    ])
    def test_equals_the_lookup_chain_off_the_cells(self, alpha, rho):
        for kind in (*BOUND_KINDS, "no-such-kind"):
            assert reference_for_kind(kind, alpha, rho) == lookup_chain(kind, alpha, rho)
