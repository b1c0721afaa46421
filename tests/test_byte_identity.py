"""Small CLI runs write the same bytes as the version the digests belong to.

Each case runs one subcommand on a small config and hashes (sha256) every
output file, the manifest without its ``run`` record (the one record that
differs between reruns), stdout and the exit code. Same-seed bytes are
promised within one version only, so DIGEST_VERSION must equal
``bathdyn.__version__``: a change that moves any byte re-records the digests
of the cases it moves and bumps both.

The digests belong to 0.8.0. It moved only decohere bytes: the kinetic substep
pads its FFTs to the smallest odd 11-smooth length >= n, not >= 1.5 n, which
moves every output of the two ``decohere_*`` cases (their states touch their
grids' edges, so by far more than roundoff), and every decohere manifest
carries a ``grid_fits`` check with its stdout line. ``decohere_symmetric``'s
state stands at 3.4e-4 of its peak on its grid's y edges, over the 1e-6 the
check accepts, so it now exits 1; ``decohere_momenta_left`` exited 1 before
and still does. 0.7.0 moved only grid-solver bytes, by roundoff: each grid
kernel folds dt and the grid spacings into its face weights and speeds once
per run, which moves ``field.csv`` and the mass column of ``mass.csv`` of the
four ``kramers_*`` and ``smoluchowski_*`` runs that step (dt, and so every
``t`` column, keeps its bits), and ``compare.jsonl`` and the manifest of
``compare``. The digests of the other files of those cases are older, as
below. 0.6.0 moved only decohere bytes: W is one real product over the y >= 0
half, which moves ``wigner_final.csv`` and the ``amplitude`` column of
``decay.csv`` by roundoff, and the ``trace_constant`` record carries ``tr0``
and ``rel_tol``. 0.5.0 moved no byte of these cases (only det-check's two
regularized-log values). ``kernels_drude`` and ``kramers_dt_too_large`` still
hold the digests recorded with 0.2.0, byte for byte, because no later version
moved their outputs. ``ensemble`` holds the digests recorded with 0.3.0
(``DoubleWell.grad`` cubes by multiplication), which later versions left where
they were. ``decohere_momenta_left`` and ``decohere_symmetric`` were recorded
with 0.3.0 (the kinetic substep pads to 11-smooth FFT lengths), with 0.4.0
(the density matrix steps on its y >= 0 half with real FFTs, which moves rho
and W by roundoff), with 0.6.0 and again with 0.8.0. The test keeps its 0.2.0
name, since most of its digests were first recorded then.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

import bathdyn
from bathdyn.cli import main

DIGEST_VERSION = "0.8.0"

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
    # 20 blocks of trajectories over 4 steps: three chunks of at most 7 blocks
    "compare_three_chunks": ("simulate", {
        "sim.kind": "compare", "potential.kind": "harmonic", "bath.gamma": "4.0",
        "bath.k_bt": "0.5", "grid.x_min": "-2.0", "grid.x_max": "4.0",
        "grid.nx": "128", "compare.times": "0.01,0.02", "compare.bins": "32",
        "run.n_traj": "20000", "run.x0": "1.0", "run.seed": "12"}),
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
# ensemble case (0.3.0), the grid outputs of the compare, kramers_* and
# smoluchowski_* cases (0.7.0), the decohere_* cases (0.8.0) and
# compare_three_chunks (0.8.0, in one chunk of 20 blocks, before chunks were
# capped at 8 blocks)
DIGESTS = {
    "compare": {
        "compare.jsonl":
            "a30be4cf6790eb96a23de22efa042b41d1a14f2cccc863a0415b7b80023aac61",
        "exit_code": "0",
        "manifest.json":
            "e5ee5be436f7e2a49fb8771aca939c010137fc50ecbccb40177233a65ee3a80d",
        "moments.csv":
            "9a0c0797d80b51bbaaf1172abcb34dbee0a0bc238a5392db4d86e50f179ecddc",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "98a3682dd937d571993fefb5d15f376e2ed8dc25e75315e60c9aa779a2c66125",
    },
    "compare_three_chunks": {
        "compare.jsonl":
            "2e65eeeffd24faeb1ff2631814b1a24a03ba6bd219308363e765203eb6ec8b35",
        "exit_code": "0",
        "manifest.json":
            "dd1c0911c232d8cc32dce1cf359e91562279e6f72ff3a0c9ce4336aaca465aca",
        "moments.csv":
            "ab71543b2669e3ad211084aa8da44b2cac23a4a0d038eb32ccfe4146536dbb4c",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "37c2007d74d7c140b475417ff53e7df9b2de4e76f25d851b81b3e68b8025dc8e",
    },
    "decohere_momenta_left": {
        "decay.csv":
            "375eb359d2fcb5dd3cf47a496dfd63b206bb4145e743df62344605e5acc2cf93",
        "exit_code": "1",
        "manifest.json":
            "ff51603e4dc60a9a62a5be8d85fb6fadc2ca19ac84a25550aadd0ba4cac9c33f",
        "rho_final.csv":
            "3aad3a7f838297d373bbe6e5c5f0dfdb969ff520e4c2201367445ab45da3786e",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "1fd8eb4a026f640c6628d76e2bdc20a5f933b8c38dd9a62409de93f2fc2e745f",
        "wigner_final.csv":
            "7c37e0bb4d456a2c16d12b862cfe6e61f4208e4973125c31b7ff540503896742",
    },
    "decohere_symmetric": {
        "decay.csv":
            "004afcc6a0d6a14180294f1a3fd5732331d6254cbed785d66d6c2699e70c6193",
        "exit_code": "1",
        "manifest.json":
            "378bb708184fafb122884a05bc2ec74f63e58e5230b2febcd0fdf5a14596ecf3",
        "rho_final.csv":
            "8ba5c5bf25a2ffb52adb2d098c13a059d6d5c285f8bcfff130bfe01e5d74cdc9",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "d49449000af88369e23fb0233f3091c81cbc058d86bc32ba7bbb968420f58427",
        "wigner_final.csv":
            "03259cd82b8a8df1bff646ea09d7703981cea655d3ce723ae4158564db51d793",
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
            "4c74718c285816b532a939e71d7d9cb83a3e88651d3be6d9d6971e56f929de53",
        "manifest.json":
            "a500fb6a3019d12a57ff90e4b5aa1c0aa7733030ece3fcfce63d110b90e71cc2",
        "mass.csv":
            "847e82858fac75f01aa25f46c35c9f884c28480659aa8075882c3b166850758c",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "b50b71a04711a47baa3f9c38d288d765022b290e0b9c8843298061f0b13af008",
    },
    "kramers_symmetric": {
        "exit_code": "0",
        "field.csv":
            "8f19ac040d65ec0bfd7f2a9d5dc103f5a0df1a016d280c7228e57a265bfb9af5",
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
            "de5965c8bd1bfd681a08761e839006fb981ba0aac3b10a3d206d27c5b604ce42",
        "manifest.json":
            "64f1add7cf2ba3a7e4aa551b5d632441d1315b0f7cb009f51a2bd7c24a02c8e0",
        "mass.csv":
            "d6d22d0765cfa38cdc7d506a3602a87738633900dccbff87c210db64f7ad9867",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout":
            "e07bba8437832de59499719f69fb989fad51e4ea0e316300dcd6240803a3c37a",
    },
    "smoluchowski_symmetric": {
        "exit_code": "0",
        "field.csv":
            "ea72c3b20eca0ca3cbdce6c5b83e2f9ad573347db1cb9df4a744c72bc1435701",
        "manifest.json":
            "b7ef3bbb9b83c277d6ffeccb236bb6b9690b64d1edfa8030eeb09e971fd77df0",
        "mass.csv":
            "b22dbfa739359ba0c7dcfe54e47054c2fb7cb68bdfa608439e5b8f88597cd7c3",
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
