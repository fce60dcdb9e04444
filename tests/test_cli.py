"""Command-line harness: exit codes, caching, reproducibility."""

import functools
import json
import math
from pathlib import Path

import pytest

import henonlab as hl
import per_orbit
from henonlab import cli
from henonlab.cli import _SELECTIONS, main
from henonlab.orbits import SPECTRUM_SCHEMA

MIXED_SPEC = {"a": [0.5, 0.0], "p": [[0.0, 0.0], [0.0, 0.0]]}
HORSESHOE_SPEC = {"a": [0.3, 0.0], "p": [[-6.0, 0.0], [0.0, 0.0]]}
FAMILY_SPEC = {"p": [[0.0, 0.0], [0.0, 0.0]], "a": [0.5, 0.0],
               "center": [0.0, 0.0], "radius": 0.1, "grid_size": 5}


@pytest.fixture
def mapfile(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(HORSESHOE_SPEC))
    return str(path)


def _enumerate(mapfile, tmp_path, name, n=4, extra=()):
    out = tmp_path / name
    rc = main(["enumerate", "--map", mapfile, "--n", str(n),
               "--out", str(out), *extra])
    return rc, out


class TestEnumerate:
    def test_counts_and_determinism(self, mapfile, tmp_path):
        rc1, out1 = _enumerate(mapfile, tmp_path, "a.json")
        rc2, out2 = _enumerate(mapfile, tmp_path, "b.json")
        assert rc1 == 0 and rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["counts"]["fix"] == 16

    def test_zero_period_is_usage_error(self, mapfile, tmp_path):
        rc, _ = _enumerate(mapfile, tmp_path, "z.json", n=0)
        assert rc == 1

    def test_missing_required_flag(self, tmp_path):
        assert main(["enumerate", "--n", "4", "--out", str(tmp_path / "x")]) == 1

    def test_unreadable_map_is_runtime_error(self, tmp_path):
        rc = main(["enumerate", "--map", str(tmp_path / "no.json"), "--n", "2",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("spec", [
        {"a": [math.nan, 0.0], "p": [[0.0, 0.0], [0.0, 0.0]]},
        {"a": [0.5, 0.0], "p": [[math.inf, 0.0], [0.0, 0.0]]},
        {"a": [0.5, 0.0], "p": [[0.0, -math.inf], [0.0, 0.0]]},
        {"a": [0.5, 0.0], "p": [[1e308, 0.0], [0.0, 0.0]]},
        {"a": [0.5, 0.0], "p": [[0.0, 0.0], [0.0, 0.0], [1e200, 0.0]]},
    ])
    def test_non_finite_or_huge_map_is_runtime_error(self, spec, tmp_path, capsys):
        path = tmp_path / "bad-map.json"
        path.write_text(json.dumps(spec))  # writes NaN and Infinity as JSON extensions
        out = tmp_path / "x.json"
        assert main(["enumerate", "--map", str(path), "--n", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_huge_map_says_its_escape_radius_overflows(self, tmp_path, capsys):
        path = tmp_path / "huge-map.json"
        path.write_text(json.dumps({"a": [0.5, 0.0], "p": [[1e308, 0.0], [0.0, 0.0]]}))
        assert main(["enumerate", "--map", str(path), "--n", "2",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == ("error: the map's coefficients are too large for a "
                                           "double-precision escape radius\n")

    def test_cache_round_trip(self, mapfile, tmp_path):
        cache = str(tmp_path / "cache")
        _, out1 = _enumerate(mapfile, tmp_path, "c1.json", n=3,
                             extra=["--cache-dir", cache])
        _, out2 = _enumerate(mapfile, tmp_path, "c2.json", n=3,
                             extra=["--cache-dir", cache])
        assert out1.read_bytes() == out2.read_bytes()
        # a different tolerance must miss the cache and still agree content-wise
        rc, out3 = _enumerate(mapfile, tmp_path, "c3.json", n=3,
                              extra=["--cache-dir", cache, "--eps-hyp", "1e-7"])
        assert rc == 0


class TestCache:
    def test_truncated_entry_is_recomputed(self, mapfile, tmp_path):
        cache = tmp_path / "cache"
        _, fresh = _enumerate(mapfile, tmp_path, "fresh.json", n=3)
        _enumerate(mapfile, tmp_path, "first.json", n=3, extra=["--cache-dir", str(cache)])
        (entry,) = cache.iterdir()
        entry.write_bytes(entry.read_bytes()[:100])  # a run killed mid-write
        rc, out = _enumerate(mapfile, tmp_path, "again.json", n=3,
                             extra=["--cache-dir", str(cache)])
        assert rc == 0
        assert out.read_bytes() == fresh.read_bytes() == entry.read_bytes()

    def test_scan_entry_missing_a_row_is_recomputed(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(FAMILY_SPEC))
        cache = tmp_path / "cache"
        args = ["scan", "--family", str(fam), "--n", "2"]
        assert main([*args, "--out", str(tmp_path / "fresh.csv")]) == 0
        assert main([*args, "--cache-dir", str(cache), "--out", str(tmp_path / "first.csv")]) == 0
        (entry,) = cache.iterdir()
        data = entry.read_bytes()
        entry.write_bytes(data[:data.rindex(b"\n", 0, -1) + 1])  # whole rows, one short
        assert main([*args, "--cache-dir", str(cache), "--out", str(tmp_path / "again.csv")]) == 0
        fresh = (tmp_path / "fresh.csv").read_bytes()
        assert (tmp_path / "again.csv").read_bytes() == fresh == entry.read_bytes()

    def test_other_version_misses(self, mapfile, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        _enumerate(mapfile, tmp_path, "old.json", n=2, extra=["--cache-dir", str(cache)])
        calls = []
        enumerate_fix = cli.enumerate_fix
        monkeypatch.setattr(cli, "enumerate_fix",
                            lambda *args, **kw: calls.append(1) or enumerate_fix(*args, **kw))
        _enumerate(mapfile, tmp_path, "same.json", n=2, extra=["--cache-dir", str(cache)])
        assert calls == []
        monkeypatch.setattr(cli, "__version__", "0.0.0")
        rc, _ = _enumerate(mapfile, tmp_path, "new.json", n=2, extra=["--cache-dir", str(cache)])
        assert rc == 0 and calls == [1]
        assert len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("command", ["enumerate", "scan"])
    def test_each_eps_hyp_has_its_own_entry(self, command, mapfile, tmp_path, monkeypatch):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(FAMILY_SPEC))
        source = ["--map", mapfile] if command == "enumerate" else ["--family", str(fam)]
        cache, keys = tmp_path / "cache", []
        fetch = cli._cache_fetch
        monkeypatch.setattr(cli, "_cache_fetch",
                            lambda d, key, valid: keys.append(key) or fetch(d, key, valid))
        for eps in ("1e-6", "1e-7", "1e-6"):
            assert main([command, *source, "--n", "2", "--eps-hyp", eps, "--cache-dir", str(cache),
                         "--out", str(tmp_path / "o")]) == 0
        assert [k["eps_hyp"] for k in keys] == [1e-6, 1e-7, 1e-6]
        assert "tols" not in keys[0]
        assert len(list(cache.iterdir())) == 2

    def test_entry_under_the_key_without_schema_is_not_served(self, mapfile, tmp_path,
                                                              monkeypatch):
        cache = tmp_path / "cache"
        _, fresh = _enumerate(mapfile, tmp_path, "fresh.json", n=2)
        keys = []
        fetch = cli._cache_fetch
        monkeypatch.setattr(cli, "_cache_fetch",
                            lambda d, key, valid: keys.append(key) or fetch(d, key, valid))
        _enumerate(mapfile, tmp_path, "first.json", n=2, extra=["--cache-dir", str(cache)])
        (entry,) = cache.iterdir()
        assert keys[0]["schema"] == SPECTRUM_SCHEMA
        legacy = {k: v for k, v in keys[0].items() if k != "schema"}
        old_path, _ = fetch(str(cache), legacy, bool)
        # the same request, cached in the indent=1 layout before the key carried the schema
        data = json.loads(entry.read_text())
        for field in ("schema", "budget_used", "unresolved"):
            del data[field]
        entry.unlink()
        with open(old_path, "w") as fh:
            fh.write(json.dumps(data, indent=1) + "\n")
        rc, out = _enumerate(mapfile, tmp_path, "again.json", n=2,
                             extra=["--cache-dir", str(cache)])
        assert rc == 0 and out.read_bytes() == fresh.read_bytes()
        assert len(list(cache.iterdir())) == 2


class TestLegacySpectrum:
    """A spectrum written before schema 2 (``indent=1``, no ``schema``) still loads."""

    def test_measure_and_lyapunov_read_it(self, mapfile, tmp_path):
        new, legacy = [], []
        for n in (2, 3):
            _, out = _enumerate(mapfile, tmp_path, f"s{n}.json", n=n)
            data = json.loads(out.read_text())
            for key in ("schema", "budget_used", "unresolved"):
                del data[key]
            old = tmp_path / f"legacy{n}.json"
            old.write_text(json.dumps(data, indent=1) + "\n")
            new.append(str(out))
            legacy.append(str(old))
        for cmd in ("measure", "lyapunov"):
            outs = []
            for files in (new, legacy):
                outs.append(tmp_path / f"{cmd}-{len(outs)}.csv")
                assert main([cmd, "--spectra", *files, "--out", str(outs[-1])]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()


class TestClassify:
    def test_rederives_spectrum(self, mapfile, tmp_path):
        _, spec = _enumerate(mapfile, tmp_path, "s.json", n=3)
        out = tmp_path / "reclass.json"
        assert main(["classify", "--spectrum", str(spec), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["counts"]["fix"] == 8
        assert all(o["kind"] == "saddle" for o in data["orbits"])


class TestMeasure:
    def test_convergence_table(self, mapfile, tmp_path):
        files = []
        for n in (2, 3, 4):
            _, out = _enumerate(mapfile, tmp_path, f"m{n}.json", n=n)
            files.append(str(out))
        out = tmp_path / "meas.csv"
        rc = main(["measure", "--spectra", *files, "--moment-order", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert "moment_gap_0_0" in lines[0]
        last = lines[-1].split(",")
        assert float(last[4]) == 0.0  # reference spectrum against itself

    @pytest.mark.parametrize("resolution", ["nan", "inf"])
    def test_non_finite_resolution_is_runtime_error(self, resolution, mapfile, tmp_path):
        _, spec = _enumerate(mapfile, tmp_path, "r.json", n=2)
        out = tmp_path / "r.csv"
        assert main(["measure", "--spectra", str(spec), "--resolution", resolution,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_mismatched_maps_rejected(self, mapfile, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(MIXED_SPEC))
        _, s1 = _enumerate(mapfile, tmp_path, "mm1.json", n=2)
        _, s2 = _enumerate(str(other), tmp_path, "mm2.json", n=2)
        rc = main(["measure", "--spectra", str(s1), str(s2),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("cmd", ["measure", "lyapunov"])
    def test_repeated_period_rejected(self, cmd, mapfile, tmp_path, capsys):
        # one n twice would count its row twice in the table
        _, s1 = _enumerate(mapfile, tmp_path, "d1.json", n=2)
        _, s2 = _enumerate(mapfile, tmp_path, "d2.json", n=2)
        _, s3 = _enumerate(mapfile, tmp_path, "d3.json", n=3)
        for files in ([s1, s1], [s1, s3, s2]):
            out = tmp_path / "d.csv"
            assert main([cmd, "--spectra", *map(str, files), "--out", str(out)]) == 2
            assert not out.exists()
            assert "two spectrum files hold n = 2" in capsys.readouterr().err


class TestLyapunov:
    def test_fixed_point_oracle(self, tmp_path):
        mp = tmp_path / "mixed.json"
        mp.write_text(json.dumps(MIXED_SPEC))
        _, spec = _enumerate(str(mp), tmp_path, "l1.json", n=1)
        out = tmp_path / "lyap.csv"
        assert main(["lyapunov", "--spectra", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        by_which = {r[1]: r for r in rows}
        assert abs(float(by_which["fix"][3]) - 0.34564) < 1e-4
        assert abs(float(by_which["sper"][3]) - 0.51893) < 1e-4
        assert all(float(r[6]) < 1e-6 for r in rows)

    @pytest.mark.parametrize("which", [",,", "", "fix,nope", "FIX"])
    def test_bad_which_is_usage_error(self, which, mapfile, tmp_path):
        _, spec = _enumerate(mapfile, tmp_path, "w.json", n=1)
        out = tmp_path / "w.csv"
        assert main(["lyapunov", "--spectra", str(spec), "--which", which,
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_which_is_checked_before_the_spectra_are_read(self, tmp_path):
        # a missing spectrum would exit 2; the bad --which is found first
        assert main(["lyapunov", "--spectra", str(tmp_path / "none.json"), "--which", "fax",
                     "--out", str(tmp_path / "w.csv")]) == 1

    def test_repeated_which_is_usage_error(self, tmp_path, capsys):
        # found before the spectra are read: the missing file would exit 2
        assert main(["lyapunov", "--spectra", str(tmp_path / "none.json"), "--which", "fix, fix",
                     "--out", str(tmp_path / "w.csv")]) == 1
        assert "twice" in capsys.readouterr().err

    def test_which_takes_spaced_names(self, mapfile, tmp_path):
        _, spec = _enumerate(mapfile, tmp_path, "s.json", n=1)
        out = tmp_path / "s.csv"
        assert main(["lyapunov", "--spectra", str(spec), "--which", " fix , sper ",
                     "--out", str(out)]) == 0
        assert [r.split(",")[1] for r in out.read_text().splitlines()[1:]] == ["fix", "sper"]


class TestIgnoredOptions:
    """Options a subcommand would ignore are usage errors; ``--seed`` stays everywhere."""

    @pytest.fixture
    def spectrum(self, mapfile, tmp_path):
        return str(_enumerate(mapfile, tmp_path, "o.json", n=2)[1])

    def test_lyapunov_rejects_budget(self, spectrum, tmp_path):
        assert main(["lyapunov", "--spectra", spectrum, "--budget", "5",
                     "--out", str(tmp_path / "l.csv")]) == 1

    def test_measure_rejects_cache_dir(self, spectrum, tmp_path):
        assert main(["measure", "--spectra", spectrum, "--cache-dir", str(tmp_path / "c"),
                     "--out", str(tmp_path / "m.csv")]) == 1

    @pytest.mark.parametrize("flag", ["--tol-newton", "--tol-dedup"])
    def test_classify_rejects_solver_tolerances(self, flag, spectrum, tmp_path):
        # classify re-certifies and re-classifies: it runs no Newton and no
        # dedup (and no command takes --tol-newton: the polish stops at the
        # working precision)
        assert main(["classify", "--spectrum", spectrum, flag, "1e-9",
                     "--out", str(tmp_path / "c.json")]) == 1

    @pytest.mark.parametrize("command", ["enumerate", "scan"])
    def test_no_newton_tolerance(self, command, mapfile, tmp_path):
        # the Newton polish stops at the working precision, and the
        # certificate alone decides exact period and orbit identity, so no
        # command takes a residual target or an identification scale
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(FAMILY_SPEC))
        source = ["--map", mapfile] if command == "enumerate" else ["--family", str(fam)]
        args = [command, *source, "--n", "2", "--out", str(tmp_path / "o")]
        assert main(args) == 0
        assert main([*args, "--tol-dedup", "1e-8"]) == 1
        assert main([*args, "--tol-newton", "1e-12"]) == 1

    @pytest.mark.parametrize("command", ["enumerate", "classify", "scan"])
    @pytest.mark.parametrize("eps", ["0", "-0.5", "nan"])
    def test_eps_hyp_must_be_positive(self, command, eps, spectrum, mapfile, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(FAMILY_SPEC))
        source = {"enumerate": ["--map", mapfile, "--n", "2"], "classify": ["--spectrum", spectrum],
                  "scan": ["--family", str(fam), "--n", "2"]}[command]
        assert main([command, *source, "--eps-hyp", eps, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: eps_hyp must be positive, not {float(eps)!r}\n"

    def test_classify_keeps_seed_and_eps_hyp(self, spectrum, tmp_path):
        assert main(["classify", "--spectrum", spectrum, "--seed", "1729", "--eps-hyp", "1e-6",
                     "--out", str(tmp_path / "c.json")]) == 0

    @pytest.mark.parametrize("command", ["lyapunov", "measure"])
    def test_seed_still_accepted(self, command, spectrum, tmp_path):
        assert main([command, "--spectra", spectrum, "--seed", "1729",
                     "--out", str(tmp_path / "x.csv")]) == 0


class TestMalformedSpectrum:
    """A spectrum file that parses as JSON but is not a spectrum is a runtime error."""

    #: one field of orbit 0 set to a value of the wrong type or range
    BAD_FIELDS = {"chi-string": ("chi", "abc"), "residual-null": ("residual", None),
                  "radius-bool": ("radius", True), "period-zero": ("period", 0),
                  "period-float": ("period", 1.0), "kind-unknown": ("kind", "elliptic"),
                  "xs-one-number": ("xs", [[0.5]]), "xs-bool": ("xs", [[True, 0.0]]),
                  "lambda-u-three-numbers": ("lambda_u", [1.0, 2.0, 3.0]),
                  "lambda-s-bool": ("lambda_s", [0.5, False]),
                  "certified-string": ("certified", "yes"), "certified-int": ("certified", 1),
                  "xs-huge-int": ("xs", [[10**400, 0.0]]), "chi-huge-int": ("chi", 10**400)}

    #: one field of the header set to a value of the wrong type or range
    BAD_HEADER = {"n-string": ("n", "4"), "n-zero": ("n", 0), "complete-string": ("complete", "no"),
                  "budget-negative": ("budget_used", -1), "budget-float": ("budget_used", 2.0)}

    @pytest.fixture(params=["no-orbits", "orbit-without-xs", "json-list", "period-not-dividing-n",
                            *BAD_FIELDS, *BAD_HEADER])
    def bad_spectrum(self, request, mapfile, tmp_path):
        data = json.loads(_enumerate(mapfile, tmp_path, "good.json", n=1)[1].read_text())
        if request.param == "no-orbits":
            del data["orbits"]
        elif request.param == "orbit-without-xs":
            del data["orbits"][0]["xs"]
        elif request.param == "period-not-dividing-n":
            # a fixed point traversed twice, in a spectrum of Fix_3
            data["n"], data["orbits"][0]["period"] = 3, 2
            data["orbits"][0]["xs"] *= 2
        elif request.param in self.BAD_FIELDS:
            key, value = self.BAD_FIELDS[request.param]
            data["orbits"][0][key] = value
        elif request.param in self.BAD_HEADER:
            key, value = self.BAD_HEADER[request.param]
            data[key] = value
        else:
            data = [data]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("command", ["classify", "measure", "lyapunov"])
    def test_exit_2_with_one_error_line(self, command, bad_spectrum, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "out"
        flag = "--spectrum" if command == "classify" else "--spectra"
        assert main([command, flag, bad_spectrum, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed spectrum: ")
        assert bad_spectrum in err[0]
        assert not out.exists()


class TestScan:
    def test_small_scan_rows(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(FAMILY_SPEC))
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--family", str(fam), "--n", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 26
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[2] == "1"
            assert int(cells[5]) >= 1  # the attracting fixed point persists

    def test_validate_stencil(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(FAMILY_SPEC))
        out = tmp_path / "stencil.csv"
        rc = main(["scan", "--family", str(fam), "--validate-stencil",
                   "--n", "2", "--out", str(out)])
        assert rc == 0
        rows = dict(r.split(",") for r in out.read_text().strip().split("\n")[1:])
        assert float(rows["max_defect_on_harmonic_field"]) < 1e-9

    def test_validate_stencil_writes_plain_floats(self, tmp_path):
        # the round-off bound wins the noise floor on this grid; it must not
        # be written as a numpy scalar's repr
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(FAMILY_SPEC))
        out = tmp_path / "stencil.csv"
        assert main(["scan", "--family", str(fam), "--validate-stencil", "--out", str(out)]) == 0
        rows = dict(r.split(",") for r in out.read_text().strip().split("\n")[1:])
        assert set(rows) == {"max_defect_on_harmonic_field", "stencil_noise_floor"}
        assert all(float(v) >= 0.0 for v in rows.values())

    def test_even_grid_usage_error(self, tmp_path):
        bad = dict(FAMILY_SPEC, grid_size=6)
        fam = tmp_path / "bad.json"
        fam.write_text(json.dumps(bad))
        rc = main(["scan", "--family", str(fam), "--n", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


    @pytest.mark.parametrize("change, rc", [
        ({"radius": math.nan}, 1),
        ({"radius": math.inf}, 1),
        ({"grid_size": 5.9}, 1),
        ({"center": [math.nan, 0.0]}, 1),
        ({"p": [[0.0, 0.0], [1e308, 0.0]]}, 2),
    ])
    def test_non_finite_or_huge_family_rejected(self, change, rc, tmp_path, capsys):
        fam = tmp_path / "bad.json"
        fam.write_text(json.dumps(dict(FAMILY_SPEC, **change)))
        out = tmp_path / "x.csv"
        assert main(["scan", "--family", str(fam), "--n", "2", "--out", str(out)]) == rc
        assert capsys.readouterr().err.startswith(("usage error: ", "error: ")[rc - 1])
        assert not out.exists()


class TestReport:
    def test_lists_cache_entries(self, mapfile, tmp_path):
        cache = str(tmp_path / "cache")
        _enumerate(mapfile, tmp_path, "r.json", n=2, extra=["--cache-dir", cache])
        (tmp_path / "cache" / ".tmp-write").write_text("{")  # a write cut short
        out = tmp_path / "report.csv"
        assert main(["report", "--cache-dir", cache, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "file,bytes" and len(lines) == 2


def _records(path) -> tuple[str, list[str]]:
    """The header line of a spectrum file and its orbit lines, each without its separator."""
    head, *rows = path.read_text().rstrip("\n").split("\n")
    return head, [r.removesuffix("]}").removesuffix(",") for r in rows]


class TestBlocks:
    """Spectra as blocks, one per run of orbits of one period, through the CLI."""

    def test_runs_of_periods_keep_their_order(self, tmp_path, monkeypatch):
        # the cubic's Fix_2 holds three fixed points and three period-2 orbits;
        # here two period-2 records come first, then the fixed points, then the third
        mapfile = tmp_path / "cubic.json"
        mapfile.write_text(json.dumps({"p": [[0.3, 0.2], [-1.5, 0.0], [0.0, 0.1]], "a": [0.4, -0.3]}))
        sorted_file, fix4 = tmp_path / "sorted.json", tmp_path / "fix4.json"
        for n, out in ((2, sorted_file), (4, fix4)):
            assert main(["enumerate", "--map", str(mapfile), "--n", str(n), "--out", str(out)]) == 0
        head, rows = _records(sorted_file)
        assert [json.loads(r)["period"] for r in rows] == [1, 1, 1, 2, 2, 2]
        text = head + "\n" + ",\n".join(rows[3:5] + rows[:3] + rows[5:]) + "]}\n"
        runs = tmp_path / "runs.json"
        runs.write_text(text)
        spec = hl.spectrum_from_file(runs)
        assert [(b.period, len(b)) for b in spec.blocks] == [(2, 2), (1, 3), (2, 1)]
        assert hl.spectrum_to_json(spec) + "\n" == text
        commands = [["measure", "--which", which, "--moment-order", "3"] for which in _SELECTIONS]
        commands.append(["lyapunov", "--which", "fix,per,sper"])

        def tables(tag):
            outs = [tmp_path / f"{tag}-{i}.csv" for i in range(len(commands))]
            for argv, out in zip(commands, outs):
                assert main([*argv, "--spectra", str(runs), str(fix4), "--out", str(out)]) == 0
            return [out.read_bytes() for out in outs]

        blocks = tables("blocks")
        # the per-orbit references take the orbits in file order, and the
        # measure's cell masses are added in that order
        monkeypatch.setattr(cli, "empirical_measure", per_orbit.empirical_measure)
        monkeypatch.setattr(cli, "lambda_estimates",
                            lambda s, whiches: [per_orbit.lambda_estimate(s, w) for w in whiches])
        assert tables("per-orbit") == blocks

    def test_cli_builds_no_orbit_records(self, mapfile, tmp_path, monkeypatch):
        made = []
        init = hl.PeriodicOrbit.__init__
        monkeypatch.setattr(hl.PeriodicOrbit, "__init__",
                            lambda self, *args, **kwargs: made.append(1) or init(self, *args, **kwargs))
        files = [tmp_path / f"fix{n}.json" for n in (4, 6)]
        for n, out in zip((4, 6), files):
            _enumerate(mapfile, tmp_path, out.name, n=n, extra=["--cache-dir", str(tmp_path / "c")])
        spectra = ["--spectra", *map(str, files)]
        for argv in (["measure", *spectra, "--moment-order", "2"], ["lyapunov", *spectra],
                     ["classify", "--spectrum", str(files[1])],
                     ["enumerate", "--map", mapfile, "--n", "6", "--cache-dir", str(tmp_path / "c")]):
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert made == []
        assert len(hl.spectrum_from_file(files[0]).orbits) == len(made) > 0


class TestParser:
    """``main`` parses every call with one parser, built on its first call."""

    @staticmethod
    def _run_calls(mapfile, d: Path, capsys):
        """Exit codes, stderr lines and output files of five calls of ``main``."""
        d.mkdir()
        cache, spectra = str(d / "cache"), ["--spectra", str(d / "a.json")]
        calls = [["enumerate", "--map", mapfile, "--n", "3", "--budget", "8", "--cache-dir", cache,
                  "--out", str(d / "a.json")],
                 ["lyapunov", *spectra, "--which", "fix,sper", "--out", str(d / "l.csv")],
                 ["measure", *spectra, "--which", "none", "--out", str(d / "bad.csv")],
                 ["measure", *spectra, "--moment-order", "2", "--out", str(d / "m.csv")],
                 ["enumerate", "--map", mapfile, "--n", "3", "--cache-dir", cache,
                  "--out", str(d / "b.json")]]
        codes = []
        for argv in calls:
            capsys.readouterr()
            codes.append((main(argv), capsys.readouterr().err))
        return codes, {p.name: p.read_bytes() for p in d.iterdir() if p.is_file()}

    def test_one_parser_serves_every_call(self, mapfile, tmp_path, monkeypatch, capsys):
        assert cli._parser() is cli._parser()
        built, keys = [], []
        build, fetch = cli.build_parser, cli._cache_fetch
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_cache_fetch", lambda d, key, valid: keys.append(key) or fetch(d, key, valid))
        monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))
        reused = self._run_calls(mapfile, tmp_path / "reused", capsys)
        assert len(built) == 1
        # no option value of one call leaks into the next: the second
        # enumerate runs under the default budget, a key of its own
        assert [k["budget"] for k in keys] == [8, None]
        assert [code for code, _ in reused[0]] == [0, 0, 1, 0, 0]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
        fresh = self._run_calls(mapfile, tmp_path / "fresh", capsys)
        assert len(built) == 6
        assert reused == fresh
