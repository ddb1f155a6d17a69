"""Config parsing, experiment envelopes, CLI behavior, determinism."""

import contextlib
import ctypes
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import statforge
from conftest import FAMILIES, PROPERTY
from statforge import cli
from statforge import distributions as d
from statforge import experiments as xp
from statforge import glm
from statforge import hypothesis as hyp
from statforge import regression as reg
from statforge import rng
from statforge import stochastic as sto
from statforge.errors import DomainError, StatforgeError
from statforge.rng import RandomStream


@pytest.fixture(scope="module")
def config_scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = xp.parse_config_text(
            'experiment = "bs-price"\nseed = 11\n'
            'spot = 100.0\nstrike = 100.0\n')
        assert cfg.experiment == "bs-price"
        assert cfg.seed == 11
        params = cfg.resolved_params()
        assert params["spot"] == 100.0
        assert params["rate"] == 0.05  # schema default

    def test_comments_and_types(self):
        cfg = xp.parse_config_text(
            "experiment = \"jl\"  # projection study\n"
            "seed = 3\n"
            "epsilon = 0.5\n"
            "replicates = 20\n")
        params = cfg.resolved_params()
        assert params["epsilon"] == 0.5
        assert params["replicates"] == 20

    def test_missing_seed_names_key(self):
        with pytest.raises(DomainError, match="seed"):
            xp.parse_config_text('experiment = "jl"\n')

    def test_unknown_experiment(self):
        with pytest.raises(DomainError, match="unknown experiment"):
            xp.parse_config_text('experiment = "alchemy"\nseed = 1\n')

    def test_unknown_key_names_key(self):
        with pytest.raises(DomainError, match="volatilityy"):
            xp.parse_config_text(
                'experiment = "bs-price"\nseed = 1\nvolatilityy = 0.2\n')

    def test_malformed_value(self):
        with pytest.raises(DomainError, match="malformed"):
            xp.parse_config_text('experiment = "jl"\nseed = 1\nepsilon = abc\n')

    def test_override_wins_and_is_echoed(self):
        cfg = xp.parse_config_text('experiment = "bayes"\nseed = 1\nn = 10\n',
                                   overrides={"seed": 99, "n": 25})
        assert cfg.seed == 99
        assert cfg.resolved_params()["n"] == 25

    def test_type_mismatch(self):
        cfg = xp.parse_config_text('experiment = "bayes"\nseed = 1\nn = 2.5\n')
        with pytest.raises(DomainError, match="expects int"):
            cfg.resolved_params()

    @pytest.mark.parametrize("text,message", [
        ('"bayes"\nseed = 1\nn = false\n', "key 'n' expects int, got False"),
        ('"mle"\nseed = 1\nks_tol = -0.01\n', "key 'ks_tol' must be at least 0, got -0.01"),
        ('"ci-coverage"\nseed = 1\ntolerance = 1' + "0" * 400 + "\n",
         "key 'tolerance' must be finite"),
    ])
    def test_value_out_of_domain(self, text, message):
        cfg = xp.parse_config_text("experiment = " + text)
        with pytest.raises(DomainError, match=message):
            cfg.resolved_params()

    @PROPERTY
    @given(data=st.data(), tag=st.sampled_from(sorted(xp.EXPERIMENTS)),
           seed=st.integers(0, 2 ** 63 - 1))
    def test_config_text_round_trip(self, data, tag, seed):
        schema = xp._config_keys(tag)
        keys = data.draw(st.lists(st.sampled_from(sorted(schema)), unique=True))
        params = {key: data.draw(_config_values(key, schema[key][0])) for key in keys}
        text = f'experiment = "{tag}"\nseed = {seed}\n'
        text += "".join(f"{key} = {value!r}\n" for key, value in params.items())
        assert all(cli._parse_assignment(f"{key}={value!r}") == (key, value)
                   for key, value in params.items())
        cfg = xp.parse_config_text(text)
        assert cfg == xp.ExperimentConfig(experiment=tag, seed=seed, params=params)
        resolved = cfg.resolved_params()
        assert all(type(resolved[key]) is type(value) and resolved[key] == value
                   for key, value in params.items())

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @PROPERTY
    @given(data=st.data())
    def test_dist_tag_round_trip(self, family, data):
        spec = data.draw(FAMILIES[family])
        fields = [field.name for field in dataclasses.fields(spec)]
        tag = f"{family}:" + ",".join(repr(getattr(spec, field)) for field in fields)
        assert cli._parse_dist_tag(tag) == spec

    @pytest.mark.parametrize("data,line", [
        (b"\xff", 1),
        (b'experiment = "bayes"\n\x80\n', 2),
        (b'experiment = "bayes"\nseed = 4\n# caf\xc3(\n', 3),
        (b"\xed\xa0\x80", 1),
        (b"\n\n\n# \xfe\n", 4),
        (b"seed = 1\n# \xe2\x82", 2),
    ], ids=["first-byte", "continuation-byte", "bad-continuation", "surrogate", "after-blank-lines",
            "truncated"])
    def test_not_utf8_file_names_the_line(self, tmp_path, data, line):
        path = tmp_path / "config.txt"
        path.write_bytes(data)
        message = f"^{re.escape(str(path))}, line {line}: not UTF-8 text$"
        with pytest.raises(DomainError, match=message):
            xp.parse_config_file(path)

    @PROPERTY
    @given(data=st.one_of(st.binary(max_size=60), st.text().map(str.encode),
                          st.text(alphabet='experimntsd= "#.0123456789\nbayesjl-', max_size=80)
                          .map(str.encode)))
    def test_any_config_file_parses_or_raises_statforge_error(self, config_scratch, data):
        path = config_scratch / "config.txt"
        path.write_bytes(data)
        try:
            xp.parse_config_file(path)
        except StatforgeError:
            pass

    def test_out_is_an_unknown_key(self):
        with pytest.raises(DomainError, match="unknown key 'out'"):
            xp.parse_config_text('experiment = "bayes"\nseed = 1\nout = "reports"\n')

    @pytest.mark.parametrize("tag", sorted(xp.EXPERIMENTS))
    def test_config_keys_are_the_runners_keyword_parameters(self, tag):
        runner = xp.EXPERIMENTS[tag]
        root, workers, *keys = inspect.signature(runner).parameters.values()
        assert [(root.name, root.kind), (workers.name, workers.kind)] == [
            ("root", root.POSITIONAL_OR_KEYWORD), ("workers", workers.POSITIONAL_OR_KEYWORD)]
        hints = typing.get_type_hints(runner)
        assert keys
        for key in keys:
            assert key.kind is key.KEYWORD_ONLY, key.name
            assert hints[key.name] in (int, float), key.name
            assert type(key.default) is hints[key.name], key.name
        resolved = xp.ExperimentConfig(tag, 1, {}).resolved_params()
        assert [(name, type(value), value) for name, value in resolved.items()] == \
            [(key.name, type(key.default), key.default) for key in keys]


def test_readme_lists_the_experiment_tags_and_probability_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tags = readme.split("Experiment tags:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([\w-]+)`", tags) == sorted(xp.EXPERIMENTS)
    probability = readme.split("a probability key (", 1)[1].split(")", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", probability)) == xp._PROBABILITY_KEYS


def test_readme_api_references_resolve():
    # `module.name` for a statforge module, `Class.attr` for a statforge
    # class; a glob such as `estimation.ci_*` does not match the pattern
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {info.name: importlib.import_module(f"statforge.{info.name}")
               for info in pkgutil.iter_modules(statforge.__path__)
               if not info.name.startswith("_")}
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items() if inspect.isclass(obj)}
    references = re.findall(r"`(\w+)\.(\w+)(?:\([^`]*\))?`", readme)
    resolved = 0
    for owner, name in references:
        if owner in modules or owner[0].isupper():
            assert hasattr(modules.get(owner) or classes.get(owner), name), f"{owner}.{name}"
            resolved += 1
    assert resolved >= 20


def _config_values(key, kind):
    """Values that pass the range checks of a config key of type ``kind``."""
    if kind is int:
        return st.integers(1, 10 ** 9)
    if key in xp._PROBABILITY_KEYS:
        return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if key == "tolerance" or key.endswith("_tol"):
        return st.floats(0.0, 1e6)
    return st.floats(allow_nan=False, allow_infinity=False)


def _two_chunks(width):
    """Items of ``width`` numbers each that make two chunks of
    ``rng.replicate_chunks``, the second partial."""
    return rng._CHUNK_NUMBERS // width + 7


# every experiment that spreads its work over ``--workers``, with small sizes
_WORKER_CASES = [
    ("bayes", {"replicates": 300}),
    ("test-size", {"replicates": 300}),
    ("mle", {"replicates": 40, "n": 800}),
    ("regression", {"replicates": 200}),
    ("glm", {"replicates": 40, "n": 400}),
    ("irt", {"examinees": 200}),
    ("brownian", {"paths": 40, "steps": 1000}),
    ("ito", {"paths": 40, "steps": 1000}),
    ("wilks", {"replicates_z": 100, "replicates_t": 100, "n_logistic": 300,
               "replicates_logistic": 100}),
    ("ci-coverage", {"replicates": 300}),
    ("james-stein", {"replicates": 500, "tolerance": 1.0}),
    ("jl", {"replicates": 6, "n_points": 8, "ambient_dim": 30,
            "epsilon": 0.5, "delta": 0.2}),
    ("er", {"n_vertices": 60, "graphs": 8, "c_low": 0.3, "c_high": 3.0}),
    ("lasso-bound", {"replicates": 8, "re_probes": 100}),
    # two chunks each, the second partial, so that it lands on the second worker
    ("feynman-kac", {"paths": _two_chunks(3), "paths_control": 500, "steps": 3}),
    ("bs-price", {"paths": _two_chunks(1)}),
    ("gauss-conc", {"k": 100, "samples": _two_chunks(sto._DRAW_WIDTH)}),
    ("mse-variance", {"replicates": _two_chunks(10)}),
]
_CHUNKED_CASES = ["feynman-kac", "bs-price", "gauss-conc", "mse-variance"]


# The first 12 hex digits of each case's report digest at seed 9. A change
# to a pin changes what the experiment reports, and must be declared in
# CHANGES.md. The pins hold for the numpy and scipy builds they were made
# with (numpy 2.4.6, scipy 1.17.1), under the kernels those builds chose on
# an AVX-512 host: numpy's dispatch up to AVX512_SPR and OpenBLAS' SkylakeX
# core. numpy's exp, log, log1p and power, and OpenBLAS' stacked products,
# give other bits at other levels, so some pins do not hold there; the
# session header (conftest.pytest_report_header) names the running ones.
_DIGEST_PINS = {
    "bayes": "6b28c3f1d856",
    "test-size": "779d511fa5bc",
    "mle": "c7cc6f8bfebf",
    "regression": "2af7bc16fcb2",
    "glm": "e049f272099b",
    "irt": "eae5b89a50c1",
    "brownian": "4dd0b9d1b091",
    "ito": "ca49d7dc5a9f",
    "wilks": "0e75f393da5e",
    "ci-coverage": "d8b21a67c1e3",
    "james-stein": "5aa8a78bf7a9",
    "jl": "8fe1b5c25fc5",
    "er": "51a84e00bac5",
    "lasso-bound": "30fee58d80cf",
    "feynman-kac": "d50b8fefec4c",
    "bs-price": "aa88995452c8",
    "gauss-conc": "7743c89068e6",
    "mse-variance": "e356cdac1ac2",
}


def test_worker_cases_cover_every_replicated_experiment():
    assert {tag for tag, _ in _WORKER_CASES} == set(xp.EXPERIMENTS) == set(_DIGEST_PINS)


@pytest.mark.parametrize("tag", _CHUNKED_CASES)
def test_chunked_worker_cases_span_two_chunks(monkeypatch, tag):
    # the case's longest sample: one full chunk and a partial one
    seen = []
    each_chunk = rng._each_chunk

    def recorded(task, total, chunk, batch):
        seen.append((total, chunk))
        return each_chunk(task, total, chunk, batch)
    monkeypatch.setattr(rng, "_each_chunk", recorded)
    xp.run_experiment(xp.ExperimentConfig(experiment=tag, seed=9,
                                          params=dict(_WORKER_CASES)[tag]))
    total, chunk = max(seen)
    assert chunk < total < 2 * chunk


# Every public function that no CLI command reaches (``run`` of each
# ``_WORKER_CASES`` config, ``list-experiments`` and ``dist``), with the
# reason it stays. A function that drops off every report path must be
# entered here with its reason, or deleted.
_PAPER_TOOL = "kept: paper tool, unit-tested, awaiting a metric"
_UNREACHED = dict.fromkeys([
    "concentration.tail_bound", "concentration.empirical_tail", "concentration.jl_project",
    "concentration.regular_degree_constant",
    "estimation.ci_mean_z", "estimation.ci_variance_asymptotic", "estimation.ci_mle_asymptotic",
    "estimation.ci_two_sample_t", "estimation.ci_delta_method", "estimation.variance_bias",
    "estimation.monte_carlo_mean",
    "distributions.dist_moments",
    "regression.ridge_fit", "regression.response_band",
    "glm.expfam_moments", "glm.poisson_log", "glm.normal_identity", "glm.gamma_neglog",
    "stochastic.gbm_sample",
], _PAPER_TOOL)


def _public_functions():
    """Every function a module of the package exports, keyed ``module.name``."""
    return {f"{info.name}.{name}": getattr(module, name)
            for info in pkgutil.iter_modules(statforge.__path__)
            for module in [importlib.import_module(f"statforge.{info.name}")]
            for name in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, name))
            and getattr(module, name).__module__ == module.__name__}


@pytest.fixture(scope="module")
def reached_codes(tmp_path_factory):
    """The code objects called while the CLI runs every report path once."""
    tmp_path = tmp_path_factory.mktemp("reach")
    argvs = [["list-experiments"]] + [["dist", "normal:0,1", flag, "0.5"]
                                      for flag in ("--pdf", "--cdf", "--quantile")]
    for tag, params in _WORKER_CASES:
        body = "".join(f"{key} = {value!r}\n" for key, value in params.items())
        (tmp_path / tag).write_text(f'experiment = "{tag}"\nseed = 9\n' + body)
        argvs.append(["run", str(tmp_path / tag)])
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
    out, err = io.StringIO(), io.StringIO()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert set(codes) <= {0, 2}, err.getvalue()
    return called


@pytest.mark.parametrize("name", sorted(_public_functions()))
def test_public_function_is_reached_or_listed(reached_codes, name):
    reached = _public_functions()[name].__code__ in reached_codes
    if name in _UNREACHED:
        assert not reached, f"{name} is reached now: take it off _UNREACHED"
    else:
        assert reached, (f"no CLI path reaches {name}: "
                         "list it in _UNREACHED with a reason, or delete it")


def test_unreached_table_names_public_functions():
    assert set(_UNREACHED) <= set(_public_functions())
    assert all(_UNREACHED.values())


class TestEnvelope:
    def _small_config(self, seed=5):
        return xp.ExperimentConfig(experiment="ci-coverage", seed=seed,
                                   params={"replicates": 300})

    def test_deterministic_rerun(self):
        first = xp.run_experiment(self._small_config())
        second = xp.run_experiment(self._small_config())
        a, b = first.to_dict(), second.to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_worker_count_invariance(self):
        serial = xp.run_experiment(self._small_config(), workers=1)
        parallel = xp.run_experiment(self._small_config(), workers=3)
        a, b = serial.to_dict(), parallel.to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_different_seeds_differ(self):
        one = xp.run_experiment(self._small_config(seed=5))
        two = xp.run_experiment(self._small_config(seed=6))
        assert one.metrics[0].value != two.metrics[0].value

    def test_gauss_conc_metrics_depend_on_the_draws(self):
        values = [[m.value for m in xp.run_experiment(xp.ExperimentConfig(
            experiment="gauss-conc", seed=seed, params={"samples": 2000, "k": 10})).metrics]
            for seed in (5, 6)]
        assert values[0] != values[1]

    def test_gauss_conc_centre_fails_under_a_wrong_law(self, monkeypatch):
        # norms drawn from chi_{k+1} in place of chi_k: E chi_101 - E chi_100 is
        # about 0.0499, some 18 standard errors at 65,536 samples in expectation
        def wrong_norms(func_tag, k, stream, take):
            return np.sqrt(d.dist_sample(d.ChiSquared(k + 1), stream, take))
        config = xp.ExperimentConfig(experiment="gauss-conc", seed=20260810,
                                     params={"samples": 65_536})
        assert xp.run_experiment(config).passed
        monkeypatch.setattr(sto, "_functional_values", wrong_norms)
        metrics = {m.name: m for m in xp.run_experiment(config).metrics}
        assert metrics["max_excess_over_bound"].passed
        gate = metrics["exact_norm_mean"]
        assert not gate.passed
        assert (gate.value - gate.target) / gate.se > 15.0

    def test_report_keys(self):
        # to_dict follows the dataclass fields, so a new field would enter
        # report.json unseen but for this check
        report = xp.run_experiment(self._small_config()).to_dict()
        assert set(report) == {"experiment", "seed", "params", "metrics", "passed",
                               "wall_time_s"}
        for metric in report["metrics"]:
            assert set(metric) == {"name", "value", "method", "tolerance", "target", "se",
                                   "passed"}

    def test_every_metric_carries_method_tag(self):
        env = xp.run_experiment(xp.ExperimentConfig(
            experiment="bayes", seed=2, params={"replicates": 100}))
        for metric in env.metrics:
            assert metric.method

    @pytest.mark.parametrize("tag,params", _WORKER_CASES)
    def test_report_digest_invariant_to_workers(self, tag, params):
        digests = []
        for workers in (1, 2):
            report = xp.run_experiment(xp.ExperimentConfig(
                experiment=tag, seed=9, params=params), workers=workers).to_dict()
            report.pop("wall_time_s")
            digests.append(hashlib.sha256(
                json.dumps(report, sort_keys=True).encode()).hexdigest())
        assert digests[0] == digests[1]
        assert digests[0][:12] == _DIGEST_PINS[tag]


def _src_env(**extra):
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(xp.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_module_entry_point_reports_errors(tmp_path):
    # `python -m statforge` runs the same main as the `statforge` script
    done = subprocess.run([sys.executable, "-m", "statforge", "run", str(tmp_path / "missing.cfg")],
                          env=_src_env(), capture_output=True, text=True, check=False)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")


def _digests_under_blas_threads(tmp_path, text):
    """Report digests of one config run in fresh processes with one and with
    two OpenBLAS threads."""
    config = tmp_path / "config.txt"
    config.write_text(text)
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        done = subprocess.run([sys.executable, "-m", "statforge.cli", "run", str(config),
                               "--out", str(out)], env=_src_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, check=False)
        assert done.returncode == 0, done.stderr
        report = json.loads((out / "report.json").read_text())
        report.pop("wall_time_s")
        digests.append(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
    return digests


def test_ito_report_invariant_to_blas_threads(tmp_path):
    # 100,000 steps per path: long enough that OpenBLAS splits a dot product
    one, two = _digests_under_blas_threads(
        tmp_path, 'experiment = "ito"\nseed = 9\npaths = 12\nsteps = 100000\n')
    assert one == two


def test_regression_report_invariant_to_blas_threads(tmp_path):
    one, two = _digests_under_blas_threads(
        tmp_path, 'experiment = "regression"\nseed = 9\nreplicates = 5000\n'
        'ks_tol = 0.1\ncoverage_tol = 0.05\nsize_tol = 0.05\n')
    assert one == two


def test_jl_report_invariant_to_blas_threads(tmp_path):
    # 50 points in 1000 dimensions: the QR and products split over threads
    one, two = _digests_under_blas_threads(
        tmp_path, 'experiment = "jl"\nseed = 9\nreplicates = 20\n')
    assert one == two


def _scaled_uniform_sums(scale, batch):
    return scale * batch.uniforms(3).sum(axis=-1)


def _sum_and_normal(stream):
    return stream.uniforms(3).sum(), stream.normals(1)[0]


def _block_rows(batch):
    return np.array([len(batch.ids)])


def _chunk_items(stream, take):
    return np.array([take])


def _block_kernel(name):
    """A block kernel of an experiment at a small size, and the width its
    caller passes to ``replicate``."""
    aux = RandomStream(81)
    if name in ("glm", "irt"):
        n = 60
        design = reg.design_matrix(aux.split(1).normals(n * 2).reshape(n, 2))
        beta = np.array([0.3, -0.5, 0.8])
        prob = 1.0 / (1.0 + np.exp(-(design.matrix @ beta)))
        if name == "glm":
            return partial(xp._kernel_glm, glm.bernoulli_logit(), design, beta, prob), n
        bank = glm.IRTItemBank(a=0.5 + aux.split(2).uniforms(15) * 1.5, b=aux.split(3).normals(15))
        return partial(xp._kernel_irt, bank, 0.5, bank.success_probability(0.5)), 15
    if name == "wilks-logistic":
        return partial(hyp._logistic_gaps, 80), 80
    m = aux.split(4).normals(30 * 10).reshape(30, 10)
    if name == "lasso-bound":
        design = reg.DesignMatrix(m, has_intercept=False)
        beta = np.concatenate([[1.0, 2.0], np.zeros(8)])
        return partial(xp._kernel_lasso_error, beta, design, 0.1), 30 + 10
    return partial(reg._cone_ratios, m, np.isin(np.arange(10), [0, 1])), sum(m.shape)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the pool size and worker
    initializer asked for and maps in this process."""

    sizes: list = []
    initializers: list = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)
        self.initializers.append(initializer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _blas_thread_counts():
    """Thread counts of the OpenBLAS libraries bundled with numpy and scipy."""
    counts = []
    for package, pattern, symbol in rng._OPENBLAS:
        for path in Path(package.__file__).parents[1].glob(pattern):
            getter = getattr(ctypes.CDLL(str(path)), symbol.replace("_set_", "_get_"))
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts.append(getter())
    return counts


def test_pool_initializer_leaves_one_blas_thread():
    if not _blas_thread_counts():
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    with ProcessPoolExecutor(max_workers=1, initializer=rng._one_blas_thread) as pool:
        counts = pool.submit(_blas_thread_counts).result()
    assert counts == [1] * len(_blas_thread_counts())


class TestReplicate:
    @pytest.mark.parametrize("n,workers,block,pool", [
        (3, 8, rng._REPLICATE_BLOCK, 3),   # one replicate per block
        (9, 4, rng._REPLICATE_BLOCK, 3),   # blocks of 3
        (20, 4, rng._REPLICATE_BLOCK, 4),
        (20, 4, 2, 4),
    ])
    def test_pool_has_no_more_workers_than_blocks(self, monkeypatch, n, workers, block, pool):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(rng, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(_SerialPool, "initializers", [])
        root = RandomStream(76)
        out = rng.replicate(partial(_scaled_uniform_sums, 1.0), n, root, workers=workers,
                            width=rng._BLOCK_NUMBERS // block)
        assert _SerialPool.sizes == [pool]
        assert _SerialPool.initializers == [rng._one_blas_thread]
        assert out.tobytes() == rng.replicate(partial(_scaled_uniform_sums, 1.0), n,
                                             root).tobytes()

    @pytest.mark.parametrize("cpus,pools", [(2, [2]), (1, [])])
    def test_pool_has_no_more_workers_than_cpus(self, monkeypatch, cpus, pools):
        # 1000 workers cut 20 replicates into 20 blocks; one CPU runs them in-process
        monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(rng, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(_SerialPool, "initializers", [])
        root = RandomStream(84)
        kernel = partial(_scaled_uniform_sums, 1.0)
        out = rng.replicate(kernel, 20, root, workers=1000)
        assert _SerialPool.sizes == pools
        assert out.tobytes() == rng.replicate(kernel, 20, root).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("width,chunk", [(1, 4_194_304), (3, 1_398_101), (100, 41_943),
                                             (300, 13_981)])
    def test_chunk_items_follow_the_item_width(self, monkeypatch, width, chunk, workers):
        monkeypatch.setattr(rng, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(_SerialPool, "initializers", [])
        total = 9_000_001
        takes = rng.replicate_chunks(_chunk_items, total, RandomStream(85), workers, width)
        assert takes.tolist() == [chunk] * (total // chunk) + [total % chunk]

    @pytest.mark.parametrize("width,workers,rows", [
        (1, 1, 4096), (1, 2, 2501), (40, 1, 1638), (40, 2, 1638),
        (300, 1, 218), (300, 2, 218), (2000, 1, 32), (2000, 2, 32),
    ])
    def test_block_rows_follow_the_row_width(self, monkeypatch, width, workers, rows):
        monkeypatch.setattr(rng, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(_SerialPool, "initializers", [])
        n = 5001
        counts = rng.replicate(_block_rows, n, RandomStream(83), workers=workers, width=width)
        assert counts.tolist() == [rows] * (n // rows) + [n % rows]

    @pytest.mark.parametrize("name", ["glm", "irt", "wilks-logistic", "lasso-bound",
                                      "cone-ratios"])
    def test_block_kernels_give_the_same_bits_at_any_block_edges(self, monkeypatch, name):
        kernel, width = _block_kernel(name)
        sizes = []

        def counted(batch):
            sizes.append(len(batch.ids))
            return kernel(batch)
        # the kernel's own width gives blocks of 3 rows here, width 1 a single
        # block, and the whole budget blocks of 1 row
        monkeypatch.setattr(rng, "_BLOCK_NUMBERS", 3 * width)
        root = RandomStream(82)
        outs = [rng.replicate(counted, 7, root, width=w) for w in (width, 1, 3 * width)]
        assert sizes == [3, 3, 1, 7] + [1] * 7
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    def test_single_block_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single block started a process pool")
        monkeypatch.setattr(rng, "ProcessPoolExecutor", no_pool)
        root = RandomStream(80)
        kernel = partial(_scaled_uniform_sums, 1.0)
        assert (rng.replicate(kernel, 1, root, workers=2).tobytes()
                == rng.replicate(kernel, 1, root, workers=1).tobytes())

    def test_matches_serial(self):
        root = RandomStream(77)
        serial = rng.replicate(partial(_scaled_uniform_sums, 2.0), 20, root, workers=1)
        spread = rng.replicate(partial(_scaled_uniform_sums, 2.0), 20, root, workers=4)
        assert serial.tobytes() == spread.tobytes()

    def test_rows_are_split_streams_across_blocks(self):
        root = RandomStream(78)
        n = rng._REPLICATE_BLOCK + 3
        sums = rng.replicate(partial(_scaled_uniform_sums, 1.0), n, root)
        assert sums.shape == (n,)
        for r in (0, rng._REPLICATE_BLOCK - 1, rng._REPLICATE_BLOCK, n - 1):
            assert sums[r] == root.split(r).uniforms(3).sum()

    def test_row_task_with_two_outputs(self):
        root = RandomStream(79)
        n = rng._REPLICATE_BLOCK + 3
        kernel = partial(rng._each_row, _sum_and_normal)
        out = rng.replicate(kernel, n, root, workers=1)
        assert out.shape == (2, n)
        for r in (0, rng._REPLICATE_BLOCK - 1, rng._REPLICATE_BLOCK, n - 1):
            assert tuple(out[:, r]) == _sum_and_normal(root.split(r))
        assert rng.replicate(kernel, n, root, workers=2).tobytes() == out.tobytes()


# valid parameters of each ``dist`` tag
_DIST_PARAMS = {"normal": "0,1", "lognormal": "0,1", "gamma": "2,1.5", "chisquared": "3",
                "studentt": "4", "fisherf": "3,5", "beta": "2,3", "exponential": "1.5",
                "bernoulli": "0.3", "binomial": "0.3,5", "poisson": "3", "geometric": "0.3",
                "uniform01": ""}


class TestCLI:
    def _write_config(self, tmp_path, body):
        path = tmp_path / "config.txt"
        path.write_text(body)
        return str(path)

    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 18
        assert "bs-price" in out

    def test_run_writes_reports(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, 'experiment = "bayes"\nseed = 4\nreplicates = 100\n')
        code = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["experiment"] == "bayes"
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("name,")
        assert len(lines) == 1 + len(payload["metrics"])

    def test_seed_flag_overrides_file(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, 'experiment = "bayes"\nseed = 4\nreplicates = 100\n')
        cli.main(["run", cfg, "--seed", "123"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 123

    def test_fresh_seed_recorded(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, 'experiment = "bayes"\nseed = 4\nreplicates = 100\n')
        cli.main(["run", cfg, "--fresh-seed"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] != 4

    def test_set_flag(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, 'experiment = "bayes"\nseed = 4\nreplicates = 100\n')
        cli.main(["run", cfg, "--set", "n=20"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["n"] == 20

    def test_tolerance_failure_exit_code(self, tmp_path):
        cfg = self._write_config(
            tmp_path,
            'experiment = "ci-coverage"\nseed = 4\nreplicates = 300\n'
            'tolerance = 0.000001\n')
        assert cli.main(["run", cfg]) == 2

    def test_error_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, 'experiment = "alchemy"\nseed = 4\n')
        assert cli.main(["run", cfg]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment,message", [
        ("replicates=0", "'replicates' must be at least 1"),
        ("replicates=-3", "'replicates' must be at least 1"),
        ("delta=nan", "'delta' must be finite"),
        ("delta=1.5", "interval"),
        ("delta=1.5", "key 'delta' must lie in the open interval (0, 1), got 1.5"),
        ("delta=0.0", "key 'delta' must lie in the open interval (0, 1), got 0.0"),
        ("tolerance=-1.0", "key 'tolerance' must be at least 0, got -1.0"),
        ("replicates=true", "key 'replicates' expects int, got True"),
        ("seed=true", "key 'seed' must be an integer"),
    ])
    def test_out_of_domain_value_is_error(self, tmp_path, capsys, assignment, message):
        cfg = self._write_config(
            tmp_path, 'experiment = "ci-coverage"\nseed = 4\nreplicates = 50\n')
        assert cli.main(["run", cfg, "--set", assignment]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_replicates_is_an_unknown_key_without_replicates(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, 'experiment = "er"\nseed = 4\ngraphs = 2\nreplicates = 5\n')
        assert cli.main(["run", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: unknown key 'replicates'")

    def test_config_not_utf8_is_error(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_bytes(b'experiment = "bayes"\nseed = 4\n# caf\xe9\n')
        assert cli.main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}, line 3: not UTF-8 text\n"
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_is_error(self, tmp_path, capsys, workers):
        cfg = self._write_config(
            tmp_path, 'experiment = "ci-coverage"\nseed = 4\nreplicates = 50\n')
        assert cli.main(["run", cfg, "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --workers must be at least 1, got {workers}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tag,params,message", [
        ("mse-variance", {"n": 1, "replicates": 100}, "key 'n' must be at least 2, got 1"),
        ("jl", {"epsilon": 1e-300}, "needs a projection dimension of 2**63 or more"),
        ("lasso-bound", {"p": 2, "replicates": 2, "re_probes": 10},
         "key 's' must be at most 'p' = 2, got 3"),
        ("bs-price", {"volatility": 1e300, "paths": 100}, "volatility ** 2"),
        ("bayes", {"replicates": 10 ** 23}, "key 'replicates' must be below 2**63"),
        ("irt", {"items": 1, "examinees": 50}, "no examinee answered both right and wrong"),
        ("regression", {"replicates": 1}, "metric 'max_beta_bias_in_se' has value nan"),
        ("mle", {"alpha": 1e300, "replicates": 3, "n": 50},
         "metric 'ks_rate_component' has value nan"),
        ("lasso-bound", {"t": 1e300, "replicates": 2, "re_probes": 10},
         "metric 'penalty' has value inf"),
        ("ito", {"paths": 1, "steps": 100}, "metric 'martingale_mean' has tolerance nan"),
        ("james-stein", {"replicates": 1}, "metric 'shrunk_mse' has se nan"),
        ("gauss-conc", {"samples": 1}, "metric 'exact_norm_mean' has tolerance nan"),
    ])
    def test_config_out_of_range_is_error(self, tmp_path, capsys, tag, params, message):
        # sizes and values out of range, which could raise a traceback or
        # write a non-finite report
        body = "".join(f"{key} = {value!r}\n" for key, value in params.items())
        cfg = self._write_config(tmp_path, f'experiment = "{tag}"\nseed = 4\n' + body)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert cli.main(["run", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("tag,key", [("brownian", "steps"), ("ci-coverage", "n"),
                                         ("irt", "items"), ("wilks", "n_t"),
                                         ("er", "n_vertices"), ("glm", "n")])
    def test_size_too_large_for_an_array_is_error(self, tmp_path, capsys, tag, key):
        # numpy refuses to shape these arrays with a ValueError
        params = {**TestSmallRunsOfHeavyExperiments.SMALL[tag], key: 2 ** 62}
        body = "".join(f"{name} = {value!r}\n" for name, value in params.items())
        cfg = self._write_config(tmp_path, f'experiment = "{tag}"\nseed = 4\n' + body)
        assert cli.main(["run", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: experiment {tag!r} has sizes too large for an array")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_out_of_memory_is_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(config, workers):
            raise MemoryError("Unable to allocate 33.5 GiB for an array")
        monkeypatch.setattr(cli, "run_experiment", exhausted)
        cfg = self._write_config(tmp_path, 'experiment = "jl"\nseed = 4\n')
        assert cli.main(["run", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: Unable to allocate 33.5 GiB for an array\n"
        assert captured.out == ""

    def test_jl_with_thousands_of_points_runs(self, tmp_path, capsys):
        # 4.5 million pairs: arrays of pairwise differences would not fit
        cfg = self._write_config(
            tmp_path, 'experiment = "jl"\nseed = 4\nn_points = 3000\nambient_dim = 5\n'
            'replicates = 2\nepsilon = 0.5\ndelta = 0.2\n')
        assert cli.main(["run", cfg]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert {m["name"]: m["value"] for m in metrics}["success_rate"] == 1.0

    def test_int_for_float_key_is_echoed_as_float(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, 'experiment = "ci-coverage"\nseed = 4\nreplicates = 50\n')
        cli.main(["run", cfg, "--set", "tolerance=1"])
        tolerance = json.loads(capsys.readouterr().out)["params"]["tolerance"]
        assert tolerance == 1.0 and type(tolerance) is float

    def test_missing_file_is_error(self):
        assert cli.main(["run", "/nonexistent/path.cfg"]) == 1

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["list-experiments", "extra"], "unrecognized arguments: extra"),
        (["run", "config.txt", "--workers", "abc"], "argument --workers: invalid int value: 'abc'"),
        (["run", "config.txt", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["run", "config.txt", "--seed", "3", "--fresh-seed"],
         "argument --fresh-seed: not allowed with argument --seed"),
        (["run"], "the following arguments are required: config"),
        (["dist", "normal:0,1", "--pdf", "nope"], "argument --pdf: invalid float value: 'nope'"),
        (["dist", "normal:0,1"], "one of the arguments --pdf --cdf --quantile is required"),
        (["dist", "normal:0,1", "--pdf", "0", "--cdf", "0"],
         "argument --cdf: not allowed with argument --pdf"),
    ])
    def test_bad_flag_is_error(self, capsys, argv, message):
        # exit 1 like every other error; exit 2 means a tolerance failed.
        # The command line is refused before the config file is read.
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: statforge") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["run", "--help"], ["dist", "--help"]):
            with pytest.raises(SystemExit) as done:
                cli.main(argv)
            assert done.value.code == 0
            assert capsys.readouterr().out.startswith("usage: statforge")

    def test_csv_format(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, 'experiment = "bayes"\nseed = 4\nreplicates = 100\n')
        assert cli.main(["run", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,")

    def test_csv_format_prints_metrics_csv(self, tmp_path, capsys):
        # bayes reports metrics without a standard error: an empty field in both
        cfg = self._write_config(
            tmp_path, 'experiment = "bayes"\nseed = 4\nreplicates = 100\n')
        assert cli.main(["run", cfg, "--format", "csv", "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.encode() == (tmp_path / "out" / "metrics.csv").read_bytes()
        assert "None" not in out

    def test_dist_subcommand(self, capsys):
        assert cli.main(["dist", "normal:0,1", "--cdf", "0"]) == 0
        assert float(capsys.readouterr().out) == 0.5
        assert cli.main(["dist", "chisquared:4", "--pdf", "1.0"]) == 0
        capsys.readouterr()
        assert cli.main(["dist", "normal:0,1", "--quantile", "0.975"]) == 0
        assert abs(float(capsys.readouterr().out) - 1.959964) < 1e-5

    @pytest.mark.parametrize("tag,u", [
        ("exponential:1e-320", "0.5"), ("gamma:1e-320,1", "0.5"), ("lognormal:700,100", "0.99"),
        ("lognormal:0,1e300", "0.9"), ("geometric:1e-320", "0.5"),
    ])
    def test_dist_quantile_past_the_float_range(self, capsys, tag, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["dist", tag, "--quantile", u]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: quantile lies past the float range\n"
        assert captured.out == ""

    def test_dist_bad_tag(self, capsys):
        assert cli.main(["dist", "weibull:1,2", "--pdf", "0.5"]) == 1
        assert cli.main(["dist", "normal:0", "--pdf", "0.5"]) == 1

    def test_dist_tags_are_the_families(self, capsys):
        assert cli.main(["dist", "weibull:1,2", "--pdf", "0.5"]) == 1
        assert f"choose from {sorted(FAMILIES)}" in capsys.readouterr().err

    @pytest.mark.parametrize("tag,message", [
        ("normal:a,1", "normal parameter 'mu' must be a number, got 'a'"),
        ("chisquared:2.5", "chisquared parameter 'k' must be an integer, got '2.5'"),
        ("chisquared:1" + "0" * 400, "ChiSquared requires a finite k"),
    ])
    def test_dist_bad_parameter(self, capsys, tag, message):
        assert cli.main(["dist", tag, "--pdf", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("tag", sorted(cli._DISTRIBUTIONS))
    def test_dist_refuses_non_finite_inputs(self, capsys, tag):
        params = _DIST_PARAMS[tag]
        spec = cli._parse_dist_tag(f"{tag}:{params}")
        for function, flag in ((d.dist_pdf, "--pdf"), (d.dist_cdf, "--cdf")):
            for x in (math.nan, [0.5, math.nan]):
                with pytest.raises(DomainError, match="NaN"):
                    function(spec, x)
            assert cli.main(["dist", f"{tag}:{params}", flag, "nan"]) == 1
            assert capsys.readouterr().err.startswith("error:")
        # infinite arguments are taken at their limits
        assert d.dist_pdf(spec, [-math.inf, math.inf]).tolist() == [0.0, 0.0]
        assert d.dist_cdf(spec, [-math.inf, math.inf]).tolist() == [0.0, 1.0]
        pieces = params.split(",") if params else []
        for k, field in enumerate(dataclasses.fields(spec)):
            for bad in ("nan", "inf", "-inf"):
                with pytest.raises(DomainError, match=f"requires a finite {field.name}"):
                    dataclasses.replace(spec, **{field.name: float(bad)})
                tag_params = ",".join(pieces[:k] + [bad] + pieces[k + 1:])
                assert cli.main(["dist", f"{tag}:{tag_params}", "--quantile", "0.3"]) == 1
                assert capsys.readouterr().err.startswith("error:")


class TestSmallRunsOfHeavyExperiments:
    """Every registered experiment runs end to end at toy scale."""

    SMALL = {
        "mse-variance": {"replicates": 2000, "rel_tol": 0.2},
        "ci-coverage": {"replicates": 400, "tolerance": 0.05},
        "jl": {"replicates": 5, "n_points": 10, "ambient_dim": 40,
               "epsilon": 0.5, "delta": 0.2},
        "er": {"n_vertices": 200, "graphs": 20, "c_low": 0.4, "c_high": 2.0},
        "mle": {"replicates": 60, "n": 800, "ks_tol": 0.2},
        "regression": {"replicates": 300, "ks_tol": 0.1,
                       "coverage_tol": 0.06, "size_tol": 0.05},
        "lasso-bound": {"replicates": 5, "n": 40, "p": 20, "s": 2,
                        "re_probes": 200},
        "glm": {"replicates": 40, "n": 400, "coverage_tol": 0.15},
        "irt": {"examinees": 300, "items": 25, "min_rate": 0.95},
        "test-size": {"replicates": 500},
        "wilks": {"replicates_z": 2000, "replicates_t": 2000, "n_t": 50,
                  "replicates_logistic": 150, "n_logistic": 300,
                  "ks_z_tol": 0.05, "ks_t_tol": 0.06, "ks_logistic_tol": 0.12},
        "brownian": {"steps": 2000, "paths": 40, "qv_tol": 0.1},
        "ito": {"steps": 2000, "paths": 200, "identity_tol": 0.1},
        "feynman-kac": {"paths": 20_000, "paths_control": 5000, "steps": 20},
        "bs-price": {"paths": 50_000},
        "gauss-conc": {"samples": 50_000, "k": 25, "grid_points": 9},
        "james-stein": {"replicates": 4000, "tolerance": 0.3},
        "bayes": {"replicates": 150},
    }

    @pytest.mark.parametrize("tag", sorted(SMALL))
    def test_runs_and_passes(self, tag):
        env = xp.run_experiment(xp.ExperimentConfig(
            experiment=tag, seed=20260810, params=self.SMALL[tag]))
        failed = [m.name for m in env.metrics if m.passed is False]
        assert not failed, f"{tag} failed metrics: {failed}"


# perfbench's tracer, installed as its traced runs install it, then the
# statements of argv[1], which read their data from argv[2]; prints the counts
_TRACED_RUN = """
import json, sys
import numpy as np
from tracer import Tracer
tracer = Tracer()
tracer.install()
from statforge import experiments as xp
from statforge import regression as reg
exec(sys.argv[1])
print(json.dumps(tracer.summary()["counts"]))
"""


def _traced_counts(statements: str, data) -> dict:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN, statements, json.dumps(data)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_perfbench_tracer_counts_traced_runs():
    # the tracer reads result fields that no package code reads
    # (ErdosRenyiGraph.n_vertices and edges, BrownianPath.values,
    # MCEstimate.n_paths, GLMFit.iterations): a traced run must still count
    small = TestSmallRunsOfHeavyExperiments.SMALL
    tags = ["er", "jl", "brownian", "feynman-kac", "bs-price", "glm", "lasso-bound"]
    counts = _traced_counts(
        "for tag, params in json.loads(sys.argv[2]).items():\n"
        "    xp.run_experiment(xp.ExperimentConfig(experiment=tag, seed=20260810, params=params))",
        {tag: small[tag] for tag in tags})
    for name in ("concentration.graphs", "concentration.jl_trials", "stochastic.paths",
                 "glm.fits", "regression.fits"):
        assert counts.get(name, 0) > 0, name


@pytest.mark.parametrize("call", ["reg.ols_fit(design, y)", "reg.lasso_fit(design, y, 0.1)"])
def test_perfbench_tracer_counts_a_single_response_fit_once(call):
    # a 1-d response is fitted as a stack of one row within the one call
    counts = _traced_counts(
        f"design, y = reg.design_matrix(np.arange(6.0)), np.array(json.loads(sys.argv[2]))\n{call}",
        [0.1, 1.2, 1.9, 3.2, 3.8, 5.1])
    assert counts["regression.fits"] == 1
