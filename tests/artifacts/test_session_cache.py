"""Session/engine integration of the persistent artifact store.

The determinism contract: results built with the cache off, against a
cold store, and against a warm store are ``canonical_json``-identical --
the store may only change the wall clock.  Budgeted calls bypass the
store entirely, corrupt entries degrade to recomputes, and pool workers
reach the store through the job payload so a pool sweep warm-starts.
"""

import pytest

from repro import envflags
from repro.artifacts import ArtifactStore
from repro.engine import Engine
from repro.experiments import ExperimentScale, run_all
from repro.robustness import Budget

MAX_FAULTS = 100
P0_MIN = 20

TINY = ExperimentScale(
    name="tiny", max_faults=120, p0_min_faults=30, max_secondary_attempts=4, seed=1
)


def build(store):
    """One engine run: enumeration + target sets for s27."""
    engine = Engine(artifacts=store)
    session = engine.session("s27")
    targets = session.target_sets(max_faults=MAX_FAULTS, p0_min_faults=P0_MIN)
    return engine, session, targets


def assert_same_targets(ours, theirs):
    assert [r.fault.key() for r in ours.all_records] == [
        r.fault.key() for r in theirs.all_records
    ]
    assert all(
        a.sens.requirements == b.sens.requirements
        for a, b in zip(ours.all_records, theirs.all_records)
    )
    assert tuple(ours.length_table) == tuple(theirs.length_table)
    assert ours.summary() == theirs.summary()


class TestSessionConsultsStore:
    def test_cold_run_publishes_both_artifacts(self, tmp_path):
        engine, _, _ = build(ArtifactStore(tmp_path / "cache"))
        # target_sets consults, misses, then enumeration consults, misses;
        # both results are published.
        assert engine.stats.counter("artifact.miss") == 2
        assert engine.stats.counter("artifact.write") == 2
        assert engine.stats.counter("artifact.hit") == 0

    def test_warm_run_loads_identical_targets(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _, _, reference = build(store)
        engine, _, targets = build(ArtifactStore(store.directory))
        # The warm target_sets load short-circuits the enumeration
        # accessor entirely: one consult, one hit, no compute.
        assert engine.stats.counter("artifact.hit") == 1
        assert engine.stats.counter("artifact.miss") == 0
        assert engine.stats.counter("artifact.write") == 0
        assert engine.stats.timers.get("target_sets") is None
        assert_same_targets(targets, reference)

    def test_warm_enumeration_loads_from_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _, cold_session, _ = build(store)
        engine = Engine(artifacts=ArtifactStore(store.directory))
        result = engine.session("s27").enumeration(MAX_FAULTS)
        assert engine.stats.counter("artifact.hit") == 1
        assert result.paths == cold_session.enumeration(MAX_FAULTS).paths

    def test_memoized_hit_skips_store(self, tmp_path):
        engine, session, first = build(ArtifactStore(tmp_path / "cache"))
        consults = engine.stats.counter("artifact.hit") + engine.stats.counter(
            "artifact.miss"
        )
        again = session.target_sets(max_faults=MAX_FAULTS, p0_min_faults=P0_MIN)
        assert again is first  # in-memory cache, same object
        assert (
            engine.stats.counter("artifact.hit")
            + engine.stats.counter("artifact.miss")
            == consults
        )

    def test_budgeted_call_bypasses_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        build(store)  # seed
        engine = Engine(
            artifacts=ArtifactStore(store.directory),
            budget=Budget(node_limit=10_000),
        )
        engine.session("s27").target_sets(
            max_faults=MAX_FAULTS, p0_min_faults=P0_MIN
        )
        # Neither consulted nor published: a budget may truncate the
        # artifact and the store must only ever hold complete builds.
        assert engine.stats.counter("artifact.hit") == 0
        assert engine.stats.counter("artifact.miss") == 0
        assert engine.stats.counter("artifact.write") == 0

    def test_corrupt_entry_recomputes_and_republishes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _, _, reference = build(store)
        for entry in store.entries():
            entry.path.write_bytes(b"garbage")
        engine, _, targets = build(ArtifactStore(store.directory))
        assert engine.stats.counter("artifact.corrupt") == 2
        assert engine.stats.counter("artifact.miss") == 2
        assert engine.stats.counter("artifact.write") == 2
        assert_same_targets(targets, reference)
        # The republished entries are intact again.
        assert store.verify()[1] == []

    def test_no_store_records_no_artifact_counters(self):
        engine = Engine()
        engine.session("s27").target_sets(
            max_faults=MAX_FAULTS, p0_min_faults=P0_MIN
        )
        assert not any(
            name.startswith("artifact.") for name in engine.stats.counters
        )


class TestEnvironmentWiring:
    @pytest.fixture(autouse=True)
    def clean_snapshot(self, monkeypatch):
        envflags.reset()
        yield
        monkeypatch.undo()
        envflags.reset()

    def test_engine_picks_up_env_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(envflags.ARTIFACT_CACHE_ENV, str(tmp_path / "cache"))
        envflags.reset()
        engine = Engine()
        assert engine.artifacts is not None
        assert engine.artifacts.directory == tmp_path / "cache"

    def test_unset_means_no_store(self, monkeypatch):
        monkeypatch.delenv(envflags.ARTIFACT_CACHE_ENV, raising=False)
        envflags.reset()
        assert Engine().artifacts is None

    def test_explicit_store_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(envflags.ARTIFACT_CACHE_ENV, str(tmp_path / "env"))
        envflags.reset()
        store = ArtifactStore(tmp_path / "explicit")
        assert Engine(artifacts=store).artifacts is store


class TestPoolSweepIdentity:
    # Two circuits at jobs=2 run as pool jobs, so every artifact the
    # parent engine counts was written or loaded by a worker that
    # inherited the store through the job payload.  The store may only
    # change the wall clock: cache off, a cold store and a warm store
    # must all produce byte-identical results.
    KWARGS = dict(
        circuits=("s27", "c17"), table6_circuits=("s27", "c17"), jobs=2
    )

    @pytest.fixture(scope="class")
    def uncached(self):
        return run_all(TINY, **self.KWARGS)

    def test_cold_and_warm_match_uncached(self, tmp_path, uncached):
        cold_engine = Engine(artifacts=ArtifactStore(tmp_path / "cache"))
        cold = run_all(TINY, engine=cold_engine, **self.KWARGS)
        assert cold_engine.stats.counter("artifact.write") > 0
        assert cold_engine.stats.counter("parallel.jobs") == 2
        assert cold.canonical_json() == uncached.canonical_json()

        warm_engine = Engine(artifacts=ArtifactStore(tmp_path / "cache"))
        warm = run_all(TINY, engine=warm_engine, **self.KWARGS)
        # Worker hits are merged back into the parent engine's stats.
        assert warm_engine.stats.counter("artifact.hit") > 0
        assert warm_engine.stats.counter("artifact.write") == 0
        assert warm.canonical_json() == uncached.canonical_json()
