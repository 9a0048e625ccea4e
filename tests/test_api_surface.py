"""repro.api surface: __all__ must match what actually imports, both tiers."""

import repro.api as api


class TestAllIntegrity:
    def test_every_name_in_all_resolves(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert not missing, f"__all__ names that fail to import: {missing}"

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        exported = {name for name in namespace if not name.startswith("_")}
        assert exported == set(api.__all__)


class TestTierSurface:
    def test_injection_tier_hierarchy_is_exported(self):
        for name in ("InjectionSpec", "MachineFault", "SourceFault",
                     "TIER_MACHINE", "TIER_SOURCE", "TIERS"):
            assert name in api.__all__, name
        assert issubclass(api.MachineFault, api.InjectionSpec)
        assert issubclass(api.SourceFault, api.InjectionSpec)

    def test_srcfi_entry_points_are_exported(self):
        for name in ("OPERATORS", "SourceLocator", "realize_source_fault",
                     "generate_source_error_set", "run_source_campaign",
                     "run_srcfi_compare", "CompareReport"):
            assert name in api.__all__, name

    def test_reexports_are_the_same_objects(self):
        from repro import srcfi
        from repro.experiments import srcfi_compare

        assert api.SourceFault is srcfi.SourceFault
        assert api.SourceLocator is srcfi.SourceLocator
        assert api.run_srcfi_compare is srcfi_compare.run_srcfi_compare
