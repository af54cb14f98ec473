"""CompileCache x DifferentialOracle: a cache hit must never change a verdict.

Satellite of the verification-harness PR: the compile cache is keyed on
the full content hash (assertions repr + penalty + seed), so a hit
returns the *identical* compiled problem and the solve path proceeds
bit-for-bit as on a miss. These tests pin that contract at the oracle
and campaign levels.
"""

from repro.service.cache import CompileCache
from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.generator import InstanceGenerator
from repro.verify import DifferentialOracle

FAST = dict(num_reads=48, sampler_params={"num_sweeps": 300})


def _oracle(cache):
    return DifferentialOracle(SolveSpec(seed=0, **FAST), cache=cache)


class TestColdVsWarm:
    def test_verdict_identical_cold_vs_warm(self):
        cache = CompileCache(maxsize=64)
        gen = InstanceGenerator(seed=13, ops="all", max_length=3)
        for _ in range(6):
            inst = gen.generate()
            cold = _oracle(cache).check(inst.assertions, witness=inst.witness)
            warm = _oracle(cache).check(inst.assertions, witness=inst.witness)
            assert not cold.cache_hit
            assert warm.cache_hit
            assert cold.to_dict() == warm.to_dict()

    def test_shared_cache_across_oracles_same_reports(self):
        cache = CompileCache(maxsize=64)
        uncached = DifferentialOracle(SolveSpec(seed=0, **FAST))
        cached = _oracle(cache)
        inst = InstanceGenerator(seed=14, ops="all").generate()
        a = uncached.check(inst.assertions, witness=inst.witness)
        b = cached.check(inst.assertions, witness=inst.witness)
        c = cached.check(inst.assertions, witness=inst.witness)
        assert a.to_dict() == b.to_dict() == c.to_dict()

    def test_cache_key_distinguishes_seeds(self):
        cache = CompileCache(maxsize=64)
        inst = InstanceGenerator(seed=15, ops="all").generate()
        DifferentialOracle(SolveSpec(seed=0, **FAST), cache=cache).check(
            inst.assertions, witness=inst.witness
        )
        report = DifferentialOracle(SolveSpec(seed=1, **FAST), cache=cache).check(
            inst.assertions, witness=inst.witness
        )
        # Different solver seed -> different cache key -> no false hit.
        assert not report.cache_hit

    def test_hit_skips_recompilation(self):
        cache = CompileCache(maxsize=64)
        oracle = _oracle(cache)
        assertions = [ast.Eq(ast.Length(ast.StrVar("x")), ast.IntLit(2))]
        oracle.check(assertions)
        before = cache.stats.misses
        oracle.check(assertions)
        assert cache.stats.misses == before
        assert cache.stats.hits >= 1
