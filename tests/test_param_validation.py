"""Construction-time Param validation: unknown keys, type mismatches,
and invalid values all raise a typed ParamError immediately."""

import json

import pytest

from repro import Param, ParamError


class TestUnknownKeys:
    def test_with_rejects_unknown_key(self):
        with pytest.raises(ParamError, match="unknown parameter"):
            Param().with_(block_sizee=64)

    def test_typo_gets_closest_match_suggestion(self):
        with pytest.raises(ParamError, match="did you mean 'block_size'"):
            Param().with_(block_sze=64)

    def test_optimized_rejects_unknown_key(self):
        with pytest.raises(ParamError):
            Param.optimized(enviroment="octree")

    def test_standard_rejects_unknown_key(self):
        with pytest.raises(ParamError):
            Param.standard(detect_static="yes")

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bdm.json"
        path.write_text(json.dumps({"tracingg": True}))
        with pytest.raises(ParamError, match="did you mean 'tracing'"):
            Param.from_file(path)


class TestRemovedFields:
    """The former A/B flags fail typed, with the reason — not a
    did-you-mean pointing at an unrelated field."""

    REMOVED = ("batched_agent_ops", "soa_arena",
               "skip_unchanged_environment")

    @pytest.mark.parametrize("name", REMOVED)
    def test_constructor_and_with_explain_removal(self, name):
        for build in (lambda: Param(**{name: True}),
                      lambda: Param().with_(**{name: False}),
                      lambda: Param.optimized(**{name: True})):
            with pytest.raises(ParamError, match="now unconditional") as err:
                build()
            assert name in str(err.value)
            assert "did you mean" not in str(err.value)

    def test_param_file_carrying_removed_field(self, tmp_path):
        path = tmp_path / "bdm.toml"
        path.write_text("[param]\nbatched_agent_ops = true\n")
        with pytest.raises(ParamError, match="'batched_agent_ops' was removed"):
            Param.from_file(path)

    def test_no_removed_field_is_a_field(self):
        assert not set(self.REMOVED) & set(Param.__dataclass_fields__)

    def test_unknown_constructor_keyword_is_typed(self):
        with pytest.raises(ParamError, match="did you mean 'block_size'"):
            Param(block_sze=64)


class TestTypeChecks:
    def test_str_field_rejects_non_string(self):
        with pytest.raises(ParamError, match="'environment' expects str"):
            Param(environment=3)

    def test_bool_field_rejects_string(self):
        with pytest.raises(ParamError, match="'tracing' expects bool"):
            Param(tracing="yes")

    def test_int_field_rejects_bool(self):
        with pytest.raises(ParamError, match="'block_size' expects int"):
            Param(block_size=True)

    def test_int_field_rejects_float(self):
        with pytest.raises(ParamError):
            Param(agent_sort_frequency=2.5)

    def test_float_field_accepts_int(self):
        assert Param(mem_mgr_growth_rate=2).mem_mgr_growth_rate == 2

    def test_bound_space_list_normalized_to_tuple(self):
        assert Param(bound_space=[0, 10]).bound_space == (0, 10)

    def test_bound_space_wrong_arity(self):
        with pytest.raises(ParamError):
            Param(bound_space=(0, 10, 20))


class TestValueChecks:
    @pytest.mark.parametrize("kwargs", [
        dict(environment="delaunay"),
        dict(agent_allocator="tcmalloc"),
        dict(other_allocator="tcmalloc"),
        dict(space_filling_curve="peano"),
        dict(agent_sort_frequency=-1),
        dict(check_invariants_frequency=-1),
        dict(block_size=0),
        dict(execution_backend="gpu"),
        dict(backend_workers=-1),
        dict(backend_chunk_size=0),
        dict(simulation_time_step=0.0),
        dict(bound_space=(10, 0)),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ParamError):
            Param(**kwargs)

    @pytest.mark.parametrize("name", ["distributed", "auto"])
    def test_retired_execution_backends_name_the_survivors(self, name):
        from repro.serve.session import SessionSetupError, build_session_sim

        message = rf"{name!r} was removed; use 'serial' or 'process'"
        with pytest.raises(ParamError, match=message):
            Param(execution_backend=name)
        with pytest.raises(ParamError, match=message):
            Param().with_(execution_backend=name)
        spec = {"model": "oncology", "agents": 10, "seed": 1,
                "params": {"execution_backend": name}}
        with pytest.raises(SessionSetupError) as info:
            build_session_sim(spec)
        assert info.value.code == "unsupported_param"

    def test_param_error_is_a_value_error(self):
        assert issubclass(ParamError, ValueError)
        with pytest.raises(ValueError):
            Param(environment="delaunay")

    def test_validate_catches_in_place_mutation(self):
        p = Param()
        p.environment = "delaunay"
        with pytest.raises(ParamError):
            p.validate()

    def test_valid_construction_paths(self):
        assert Param(tracing=True).tracing
        assert Param.standard().environment == "kd_tree"
        assert Param.optimized().agent_allocator == "bdm"
        assert Param().with_(execution_backend="process").backend_workers == 0
