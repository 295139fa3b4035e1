"""Campaign runner: classification, determinism, sharded execution."""

import numpy as np
import pytest

import repro.flow
from repro.hdl.passes import PassManager
from repro.hdl.serialize import netlist_fingerprint, netlist_to_dict
from repro.obs.events import CollectingSink
from repro.robustness import campaign
from repro.robustness.campaign import (
    CampaignSpec,
    fault_list,
    run_campaign,
)
from repro.robustness.faults import SEUFault, StuckAtFault


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(circuit="cpu")
        with pytest.raises(ValueError):
            CampaignSpec(model="metastability")
        with pytest.raises(ValueError):
            CampaignSpec(n=1)

    def test_fault_list_deterministic(self):
        spec = CampaignSpec(circuit="converter", n=4, model="bridge", samples=20)
        assert fault_list(spec) == fault_list(spec)

    def test_sampling_caps_the_universe(self):
        full = fault_list(CampaignSpec(n=4, model="stuck"))
        sampled = fault_list(CampaignSpec(n=4, model="stuck", samples=10))
        assert len(sampled) == 10
        assert set(sampled) <= set(full)


class TestConverterCampaign:
    def test_exhaustive_stuck_accounting(self):
        res = run_campaign(CampaignSpec(circuit="converter", n=4, model="stuck"))
        assert res.exhaustive
        assert res.total == len(fault_list(res.spec))
        assert res.benign + res.detected + res.silent == res.total
        assert res.corrupting > 0
        # every corrupting fault is caught by the rank oracle; the
        # bijectivity check alone gets a strict subset
        assert 0.0 < res.bijection_coverage <= 1.0

    def test_seu_campaign_targets_registers(self):
        spec = CampaignSpec(circuit="converter", n=4, model="seu")
        faults = fault_list(spec)
        assert faults and all(isinstance(f, SEUFault) for f in faults)
        res = run_campaign(spec)
        assert res.total == len(faults)

    def test_worker_count_invariance(self):
        spec = CampaignSpec(circuit="converter", n=4, model="stuck", samples=30)
        a = run_campaign(spec, workers=1)
        b = run_campaign(spec, workers=2)
        assert (a.benign, a.detected, a.silent) == (b.benign, b.detected, b.silent)

    def test_render_mentions_key_numbers(self):
        res = run_campaign(CampaignSpec(n=4, model="stuck", samples=16))
        text = res.render()
        assert "bijection-check coverage" in text
        assert "Wilson CI" in text  # sampled campaigns quote the interval
        assert "rank oracle" in text


class TestEngineIdentity:
    """The fault-parallel compiled path must match the per-fault interpreter
    exactly — counts, per-fault classification order and rendered examples."""

    @pytest.mark.parametrize(
        "circuit,model,n",
        [
            ("converter", "stuck", 4),
            ("converter", "seu", 4),
            ("shuffle", "stuck", 4),
            ("shuffle", "seu", 4),
        ],
    )
    def test_compiled_matches_interp(self, circuit, model, n):
        def run(engine):
            return run_campaign(
                CampaignSpec(
                    circuit=circuit, n=n, model=model, samples=24, engine=engine
                )
            )

        a, b = run("interp"), run("compiled")
        assert (a.benign, a.detected, a.silent) == (b.benign, b.detected, b.silent)
        assert a.examples == b.examples
        assert a.engine == "interp" and b.engine == "compiled"
        # fault-parallelism: far fewer sweeps than one-per-fault
        assert 0 < b.sweeps < a.sweeps

    @pytest.mark.parametrize("model", ["stuck", "seu"])
    def test_vector_quantum_packs_denser_identically(self, model):
        """engine="vector" sizes packed slots from its 4096-lane quantum:
        fewer sweeps than the 63-lane compiled quantum, same results."""

        def run(engine):
            return run_campaign(
                CampaignSpec(circuit="converter", n=4, model=model, engine=engine)
            )

        c, v = run("compiled"), run("vector")
        assert (c.benign, c.detected, c.silent) == (v.benign, v.detected, v.silent)
        assert c.examples == v.examples
        assert v.engine == "vector"
        assert 0 < v.sweeps < c.sweeps

    def test_auto_resolves_to_fault_parallel(self):
        res = run_campaign(CampaignSpec(n=4, model="stuck", samples=12))
        assert res.engine == "compiled"
        assert "faults/s" in res.render()

    def test_bridge_model_falls_back_to_interp(self):
        res = run_campaign(CampaignSpec(n=4, model="bridge", samples=12))
        assert res.engine in ("auto", "interp")

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(engine="verilator")


class TestShuffleCampaign:
    def test_stuck_campaign_runs(self):
        res = run_campaign(
            CampaignSpec(circuit="shuffle", n=4, model="stuck", samples=20)
        )
        assert res.total == 20
        assert res.benign + res.detected + res.silent == 20
        assert "statistical monitoring" in res.render()

    def test_seu_in_lfsr_is_always_silent_or_benign(self):
        """An upset LFSR bit reshuffles the randomness: outputs stay valid
        permutations, so per-sample checking can never catch it."""
        res = run_campaign(
            CampaignSpec(circuit="shuffle", n=4, model="seu", samples=30)
        )
        assert res.detected == 0
        assert res.total == 30


@pytest.fixture
def cold():
    """Start from empty per-process netlist and fault-list memos."""
    campaign._netlist.cache_clear()
    campaign._fault_universe.cache_clear()


#: One campaign per kind of build: plain, pass-optimised, pipelined
#: (SEU) and the per-fault bridging path.
_BUILD_SPECS = {
    "stuck": CampaignSpec(n=5, model="stuck"),
    "optimized": CampaignSpec(n=5, model="stuck", optimized=True),
    "seu": CampaignSpec(n=4, model="seu"),
    "bridge": CampaignSpec(n=5, model="bridge", samples=40),
}


class TestBuildOnce:
    """A campaign process builds its circuit and fault universe once, and
    each evaluator sweeps through one simulator."""

    @pytest.mark.parametrize("kind", sorted(_BUILD_SPECS))
    def test_one_build_and_one_pass_run_per_campaign(self, kind, monkeypatch, cold):
        spec = _BUILD_SPECS[kind]
        calls = {"build": 0, "passes": 0}
        build, passes = repro.flow.build_circuit, PassManager.run

        def counted_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        def counted_passes(self, *args, **kwargs):
            calls["passes"] += 1
            return passes(self, *args, **kwargs)

        monkeypatch.setattr(repro.flow, "build_circuit", counted_build)
        monkeypatch.setattr(PassManager, "run", counted_passes)
        res = run_campaign(spec, workers=1)
        assert res.total > 0
        assert calls == {"build": 1, "passes": int(spec.optimized)}

    def test_bridging_sweeps_one_simulator_per_shard(self, monkeypatch, cold):
        made = []

        class Counting(campaign.CombinationalSimulator):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(campaign, "CombinationalSimulator", Counting)
        sink = CollectingSink()
        res = run_campaign(_BUILD_SPECS["bridge"], workers=1, events=sink)
        shards = next(e.fields["shards"] for e in sink.events if e.kind == "plan")
        assert res.total == 40
        # one per shard's evaluator plus the planning evaluator, not one
        # per fault
        assert len(made) <= shards + 1

    @pytest.mark.parametrize("kind", ["stuck", "seu", "bridge"])
    def test_shared_netlist_is_never_mutated(self, kind, cold):
        spec = _BUILD_SPECS[kind]
        nl = campaign._campaign_netlist(spec)
        fingerprint, structure = netlist_fingerprint(nl), netlist_to_dict(nl)
        run_campaign(spec)
        assert campaign._campaign_netlist(spec) is nl
        assert netlist_fingerprint(nl) == fingerprint
        assert netlist_to_dict(nl) == structure

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    @pytest.mark.parametrize("model", ["stuck", "seu"])
    def test_cold_and_warm_runs_agree(self, engine, model, cold):
        spec = CampaignSpec(n=4, model=model, samples=30, engine=engine)
        first = run_campaign(spec)
        again = run_campaign(spec)
        assert (first.total, first.benign, first.detected, first.silent) == (
            again.total,
            again.benign,
            again.detected,
            again.silent,
        )
        assert first.examples == again.examples

    def test_fault_list_is_the_callers_to_edit(self):
        spec = CampaignSpec(n=4, model="stuck")
        mine = fault_list(spec)
        universe = list(mine)
        mine.clear()
        fault_list(spec).append(StuckAtFault(0, True))
        assert fault_list(spec) == universe
        assert run_campaign(spec).total == len(universe)

    def test_engine_does_not_split_the_fault_memo(self, cold):
        fault_list(CampaignSpec(n=4, model="stuck", engine="interp"))
        fault_list(CampaignSpec(n=4, model="stuck", engine="vector"))
        assert campaign._fault_universe.cache_info().misses == 1
