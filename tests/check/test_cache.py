"""Incremental-cache behaviour: correctness first, speed as a bench.

The cache must never change *what* is reported — only how fast.  Every
test here drives :func:`repro.check.static.analyze_project` through a
real on-disk tree and asserts cold/warm/invalidation behaviour on the
findings themselves (the <5% wall-time bar lives in
``benchmarks/bench_check.py`` / ``BENCH_check.json``, not in the test
suite, where single-CPU container timing would flake).
"""

import textwrap

from repro.check.cache import CheckCache
from repro.check.static import analyze_project


def write_tree(root, files: dict[str, str]):
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


FAULTY = {
    "mod_a.py": """
        TAG = 7

        def sender(comm, x):
            if comm.rank == 0:
                comm.barrier()
            comm.send(x, 1, TAG)
        """,
    "mod_b.py": """
        def clean(comm, x):
            comm.allreduce(x)
            return comm.recv(0, 7)
        """,
}


def run(tree, cache=None):
    findings, n_files = analyze_project([tree], cache=cache)
    return [f.as_dict() for f in findings], n_files


class TestWarmRuns:
    def test_warm_run_identical_findings(self, tmp_path):
        tree = write_tree(tmp_path, FAULTY)
        cache = CheckCache(str(tmp_path / "cache.json"))
        cold, _ = run(tree, cache)
        warm_cache = CheckCache(cache.cache_path)
        warm, _ = run(tree, warm_cache)
        assert cold == warm
        assert cold  # the seeded tree is not clean — SPMD101 at least


class TestInvalidation:
    def test_file_edit_invalidates(self, tmp_path):
        tree = write_tree(tmp_path, FAULTY)
        cache = CheckCache(str(tmp_path / "cache.json"))
        cold, _ = run(tree, cache)
        # Fix the rank-gated barrier; the warm run must see the fix.
        (tmp_path / "mod_a.py").write_text(
            textwrap.dedent(
                """
                TAG = 7

                def sender(comm, x):
                    comm.barrier()
                    comm.send(x, 1, TAG)
                """
            )
        )
        warm, _ = run(tree, CheckCache(cache.cache_path))
        # mod_b's recv matches mod_a's send tag, so the rank-gated
        # barrier was the only finding, and the edit fixed it.
        assert [f["rule"] for f in cold] == ["SPMD101"]
        assert warm == []

    def test_cross_module_constant_edit_invalidates_peer_findings(
        self, tmp_path
    ):
        # wire's send tag comes from tags.py: editing only that constant
        # must invalidate wire's cached cleanliness.
        tree = write_tree(
            tmp_path,
            {
                "pkg/tags.py": "TAG = 7\n",
                "pkg/wire.py": """
                    from pkg.tags import TAG

                    def sender(comm, x):
                        comm.send(x, 1, TAG)
                        return comm.recv(1, 7)
                """,
            },
        )
        cache = CheckCache(str(tmp_path / "cache.json"))
        clean, _ = run(tree, cache)
        assert clean == []
        (tmp_path / "pkg" / "tags.py").write_text("TAG = 8\n")
        stale, _ = run(tree, CheckCache(cache.cache_path))
        assert [f["rule"] for f in stale] == ["SPMD201", "SPMD202"]

    def test_ruleset_version_salts_tree_key(self, tmp_path, monkeypatch):
        # Simulate a rule-catalog change by swapping the rule-set version
        # the tree key is salted with: the reload must miss.
        import hashlib

        from repro.check import cache as cache_module

        tree = write_tree(tmp_path, FAULTY)
        run(tree, CheckCache(str(tmp_path / "cache.json")))
        shas = {}
        for name in FAULTY:
            data = (tmp_path / name).read_bytes()
            shas[str(tmp_path / name)] = hashlib.sha256(data).hexdigest()
        reloaded = CheckCache(str(tmp_path / "cache.json"))
        assert reloaded.lookup_tree(shas) is not None
        monkeypatch.setattr(cache_module, "RULESET_VERSION", "000000000000")
        assert reloaded.lookup_tree(shas) is None

    def test_version_bump_discards_cache(self, tmp_path):
        tree = write_tree(tmp_path, FAULTY)
        cache = CheckCache(str(tmp_path / "cache.json"))
        run(tree, cache)
        import json

        with open(cache.cache_path, encoding="utf-8") as handle:
            data = json.load(handle)
        data["version"] = -1
        with open(cache.cache_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        reloaded = CheckCache(cache.cache_path)
        assert reloaded.lookup_tree({}) is None

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")
        cache = CheckCache(str(path))
        tree = write_tree(tmp_path / "t", FAULTY)
        findings, _ = run(tree, cache)
        assert findings  # analysis ran fine from scratch
