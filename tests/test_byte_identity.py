"""Small CLI runs write the same bytes as the version the digests belong to.

Each case runs one subcommand on a small config and hashes (sha256) every
output file, the manifest without its ``run`` record (the one record that
differs between reruns), stdout and the exit code. Same-seed bytes are
promised within one version only, so DIGEST_VERSION must equal
``bathdyn.__version__``: a change that moves any byte re-records the digests
of the cases it moves and bumps both.

The digests belong to 0.6.0. It moved only decohere bytes: W is one real
product over the y >= 0 half, which moves ``wigner_final.csv`` and the
``amplitude`` column of ``decay.csv`` by roundoff, and the ``trace_constant``
record carries ``tr0`` and ``rel_tol``. 0.5.0 moved no byte of these cases
(only det-check's two regularized-log values). Six cases still hold the digests
recorded with 0.2.0, byte for byte, because no later version moved their
outputs. ``ensemble`` and ``smoluchowski_double_well`` hold the digests
recorded with 0.3.0 (``DoubleWell.grad`` cubes by multiplication), which later
versions left where they were. ``decohere_momenta_left`` and ``decohere_symmetric`` were recorded
with 0.3.0 (the kinetic substep pads to 11-smooth FFT lengths), with 0.4.0
(the density matrix steps on its y >= 0 half with real FFTs, which moves rho
and W by roundoff) and again with 0.6.0; their ``rho_final.csv`` digests
date from 0.4.0. The test keeps its 0.2.0 name, since most of
its digests date from then.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

import bathdyn
from bathdyn.cli import main

DIGEST_VERSION = "0.6.0"

_KRAMERS = {
    "sim.kind": "kramers", "potential.kind": "double_well",
    "bath.gamma": "1.0", "bath.k_bt": "0.5",
    "grid.nx": "32", "grid.nv": "24", "grid.v_min": "-3.5", "grid.v_max": "4.0",
    "fp.x0": "-0.93", "fp.steps": "60", "fp.record_every": "7",
}

CASES = {
    "kramers_momenta_left": ("simulate", {**_KRAMERS, "fp.dt": "0.0"}),
    "kramers_symmetric": ("simulate", {**_KRAMERS, "fp.ordering": "symmetric"}),
    "kramers_dt_too_large": ("simulate", {**_KRAMERS, "fp.dt": "0.05"}),
    "smoluchowski_double_well": ("simulate", {
        "sim.kind": "smoluchowski", "potential.kind": "double_well",
        "bath.gamma": "2.0", "grid.nx": "96", "fp.x0": "0.7", "fp.sigma_x": "0.4",
        "fp.steps": "300", "fp.record_every": "40"}),
    "smoluchowski_symmetric": ("simulate", {
        "sim.kind": "smoluchowski", "potential.kind": "polynomial",
        "potential.coeffs": "0.0,0.3,0.5,0.0,0.1", "fp.ordering": "symmetric",
        "grid.nx": "64", "fp.steps": "150", "fp.record_every": "50"}),
    "compare": ("simulate", {
        "sim.kind": "compare", "potential.kind": "harmonic", "bath.gamma": "4.0",
        "bath.k_bt": "0.5", "grid.x_min": "-2.0", "grid.x_max": "4.0",
        "grid.nx": "128", "compare.times": "0.05,0.1", "compare.bins": "32",
        "run.n_traj": "3000", "run.x0": "1.0", "run.seed": "11"}),
    "ensemble": ("simulate", {
        "sim.kind": "ensemble", "run.mode": "inertial", "potential.kind": "double_well",
        "run.steps": "120", "run.n_traj": "500", "run.seed": "5", "run.x0": "1.0",
        "run.sigma_x": "0.3", "output.autocorr_lags": "9", "output.bins": "16"}),
    "decohere_momenta_left": ("decohere", {
        "grid.nx": "41", "grid.ny": "31", "run.steps": "30", "run.record_every": "4",
        "state.separation": "3.1"}),
    "decohere_symmetric": ("decohere", {
        "state.kind": "gaussian", "potential.kind": "harmonic",
        "decohere.ordering": "symmetric", "grid.nx": "33", "grid.ny": "25",
        "run.steps": "25", "run.record_every": "5"}),
    "kernels_drude": ("kernels", {
        "bath.model": "drude", "bath.omega_d": "3.0", "bath.hbar": "0.5",
        "grid.nw": "101", "grid.nt": "257"}),
}

# case -> name -> sha256 hex digest; recorded with bathdyn 0.2.0, except the
# ensemble and smoluchowski_double_well cases (0.3.0) and the decohere_* cases
# (0.6.0)
DIGESTS = {
    "compare": {
        "compare.jsonl":
            "2c55aa5b2057fb6d71779320bba4887e47c1095425135c8644b2df14982e4cf0",
        "exit_code": "0",
        "manifest.json":
            "935c54ca096cf591b6f0fc19452e4c25158040a05c6d8c05be104b2099fd675f",
        "moments.csv":
            "9a0c0797d80b51bbaaf1172abcb34dbee0a0bc238a5392db4d86e50f179ecddc",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "98a3682dd937d571993fefb5d15f376e2ed8dc25e75315e60c9aa779a2c66125",
    },
    "decohere_momenta_left": {
        "decay.csv":
            "e7e3c475c902c5f2e041f2e773ba33c3f14092323cb90f433501d7ce62aad096",
        "exit_code": "1",
        "manifest.json":
            "5b96c939f2b4d2ddc6ab08716a2ebe559d258da95b79c64744af56c905533bde",
        "rho_final.csv":
            "c490fc0712a12683dc7685e504200aec7bd4ffaa72b294dbaee534bc67400661",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "5a43e7d6b1ad13a36619fa76d77f28ff9e8e843962142822588039f652498859",
        "wigner_final.csv":
            "eb34cf7aa4360f5a4081567f0a23bbbafe12d2289ef25d6fe5de22198ed1324d",
    },
    "decohere_symmetric": {
        "decay.csv":
            "0a5fdba7876c353a792204859267c6ff3d42b034cc8df7b4bab072664baa7300",
        "exit_code": "0",
        "manifest.json":
            "c0239ad5bd7c045fa8b6e236136fccfa007b75a57a4c446c9b5f0328d29650c1",
        "rho_final.csv":
            "8b2ac0f1b3fecd154cfc2cceeeb3bda4d79af083caad64b1a949df880eab4b53",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "5bcd6caa25fb261906093bf9a329c8514ac0433c50408975e5676f29beb88d9a",
        "wigner_final.csv":
            "800283401d16502dd6f279e3244fd4a4a88cd9f0687bda614e81dfd8d7f13e5a",
    },
    "ensemble": {
        "autocorr.csv":
            "a715e75d596b12bc471edba264f80c90ca50dc8543c109d8183a579ea999cf82",
        "exit_code": "0",
        "histogram.csv":
            "6200ec908a2ec03f06dddce45b90203f19b97a1091768b20e710df5a5a8e795f",
        "manifest.json":
            "47bc62e937d6bc413ae0bbc9ee2374d49ed4e2e3e2f6a26a28c17759ccd74722",
        "moments.csv":
            "af0644bca5e0ab41cbba7babba50a3a257d909a9901f1f560235030685479cb1",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "dfc7878fd5ceaf3637282d701e951bcf8e3c6cde5a68fa035524eaefe4729129",
    },
    "kernels_drude": {
        "exit_code": "0",
        "friction_time.csv":
            "2bf5646819ee594c0199e002756c813548413f7655f4568d867bb5fd5c1f7ccc",
        "manifest.json":
            "12caa49ff3df116932f51f312c55ac972a8f60bea6c425eb30918a5b5f48f159",
        "noise_freq.csv":
            "79d73e715e697390c62e3e3f5005aa951b4d7f67bae7f675284683520f79ef86",
        "noise_time.csv":
            "511a0cc76b356cc523bf9f0626e9875b1d9333471f138774df2bf6bc79cd651f",
        "spectral_density.csv":
            "c5daa8fb6e73e9123fb95d36e1f0c9a8487309eac3a8f622967d591f028bf0a1",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "5ce628102e6f3e4e801e9cfb72782d6fa97dde84add2889e00d0040000d78ee8",
    },
    "kramers_dt_too_large": {
        "exit_code": "1",
        "manifest.json":
            "3dd8839fcd579eb59e655565847279c4d003ebf7315a082f44d26f7d1b7e0235",
        "stderr":
            "6abc950f67009327286a1048c42dcac5346d8c608c52f69cc308b184e2be5703",
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "kramers_momenta_left": {
        "exit_code": "0",
        "field.csv":
            "ce66fec5254e46e9e8a459376802aaa534f374f90c05da37b6053c96b8b1ad61",
        "manifest.json":
            "a500fb6a3019d12a57ff90e4b5aa1c0aa7733030ece3fcfce63d110b90e71cc2",
        "mass.csv":
            "04a205fa9c11ed3e656e59b02b84a5685cd7f87281fd7efed316206a9e7b9b14",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "b50b71a04711a47baa3f9c38d288d765022b290e0b9c8843298061f0b13af008",
    },
    "kramers_symmetric": {
        "exit_code": "0",
        "field.csv":
            "7f875e46b0413988bf8ec22a696e1b782e9bfbd2457f6a443315e78ea4813594",
        "manifest.json":
            "e31c32b0022c42d74def35080982f138b6123caf318bf371143a7028280cc2fa",
        "mass.csv":
            "b34afa04ed8dc6a5399fc03580dd96cc953fb1251c5384e5524a7c1952e07e4b",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "4db52799f5f2e32bf1f728a821e39f9eb0a0a3c0b4ea6a581616b68c692ee305",
    },
    "smoluchowski_double_well": {
        "exit_code": "0",
        "field.csv":
            "ccd50699a33861c3826e370b035ac2817f637e0153613bc371b3f48303316476",
        "manifest.json":
            "f610af80fc7a228e5d02598a3e57f00312101d20cb024fa14378a2721a3d0427",
        "mass.csv":
            "4eb3010d41a008e1ef815d6e6ac79033a713a932df64859716ce4bd8eb4e1bf4",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "e07bba8437832de59499719f69fb989fad51e4ea0e316300dcd6240803a3c37a",
    },
    "smoluchowski_symmetric": {
        "exit_code": "0",
        "field.csv":
            "976fc37c217c414777f524b1f0d1a55fafa025dda31e4afc1f86758c4a0f143e",
        "manifest.json":
            "b7ef3bbb9b83c277d6ffeccb236bb6b9690b64d1edfa8030eeb09e971fd77df0",
        "mass.csv":
            "957838a283199ffdcdf0e3aa6e9b6cf0b61299d3f011f6729a3ca2518b44b6fe",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "b5fca68e70bfa30c40e2154fde01f22ab7bbbbe978815af6a3e7807e4eefe3b0",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(tmp_path, capsys, name):
    """name -> digest of every output of one case, its stdout, stderr and exit code."""
    command, config = CASES[name]
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    out = tmp_path / name
    capsys.readouterr()
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    printed = capsys.readouterr()
    digests = {"exit_code": str(code), "stdout": _sha(printed.out.encode()),
               "stderr": _sha(printed.err.encode())}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            lines = [ln for ln in data.decode().splitlines(keepends=True)
                     if json.loads(ln)["record"] != "run"]
            data = "".join(lines).encode()
        digests[path.name] = _sha(data)
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_version_0_2_0(tmp_path, capsys, name):
    assert run_case(tmp_path, capsys, name) == DIGESTS[name]


def test_digests_belong_to_this_version():
    assert DIGEST_VERSION == bathdyn.__version__


def test_pyproject_version_is_the_package_version():
    # read with a regex: tomllib is 3.11+, and the package allows 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text[text.index("[project]"):]
    found = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert found is not None and found.group(1) == bathdyn.__version__
