"""Byte identity of the command-line outputs.

Each digest pins the SHA-256 of one command's exit code, stdout, stderr and
written file: `gen`, `analyze --json`, `certify` (with the certificate it
writes), `verify --json` and `matrix --json` on `gmsurf gen` inputs at 5, 30
and 120 pieces, seed 3, in every profile; `certify` and `verify --json` on
the slowly-closing paths of 8, 13 and 24 pieces, whose positive vectors
take shift-invert solves; and `matrix --json` on the two-piece grid of
acceptance criterion 1.  A refactor must leave every byte
as it is; a change meant to alter an output re-records its digest and says
why.
"""

import contextlib
import hashlib
import io
import json
import os
from itertools import product
from pathlib import Path

import pytest

from gmsurf.cli import main
from gmsurf.fileio import load_manifold, rows_to_json
from gmsurf.generate import PROFILES
from gmsurf.manifold import decomposition_matrix

from test_fileio import save_manifold
from test_surface import slowly_closing_path

GEN_DIGESTS = {
    (5, 'any'): {
        'gen': 'bbc5fb13dc0c98d26be80411b38611e056587895f540637d1733656bac884e7d',
        'analyze': '3b21a05ef41aeed01c200835eb5e946668bbe0ea87b773c88f9e796153448718',
        'certify': '9ef7cebb314800555c076f4831cf2212f3ad59e08dbc6b1fa433d761eeec0854',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': '54b4438418278c5f0649f103d6a0f05fc2f48905f84e678853e265cb8b3b5664',
    },
    (5, 'negdef'): {
        'gen': '268e20889c8c8347ffe92db803af4e2e3d25e3ce2367b961f163a2c247770d19',
        'analyze': 'f04aecf1343c83c36f5583cde7a4ed63bdc440c82a9db7cb6a8f4b009a09f409',
        'certify': '1c6b3db02d9e2f3874d6877e0f57a9278021e160cb18c33209f43b354115af44',
        'matrix': 'a4bba24855d2ac05dedc8702067671087cf96bab6102687aed24096b9bc99607',
    },
    (5, 'posEig'): {
        'gen': '2acc4b0beb15b033f433251563bab94174b8a4c3f5b494a562ab1bfbffcb6856',
        'analyze': 'dd7b2e4316cf9f452bcf9146b9de765b65ab44c2815dfb75e801618cc1921ce0',
        'certify': '4184f6df16e5821840bab50257353a92b882bb37a7170e50246dad1b3b869cde',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': 'b75f836fc29b7985254f01965be0b76f76ce7ee1dc550adbe915c63c266c22dd',
    },
    (5, 'semidef'): {
        'gen': 'b8259444ee42f7daa94ceb93b63403c66fc238ba6d88e8420fba4caad5d1c575',
        'analyze': 'bdb21269fb7c810e9d5058ad56274757ea74d65ec46a3f07b827cc3515f11165',
        'certify': '1df6a3ebd8035552d60ac247c6481076585d414128362d2ea157f89d95f1f169',
        'matrix': '13b4d65190c84b8c57d9cafa55fdc78d90745dbffa03c36d38e59be56f2aebcd',
    },
    (30, 'any'): {
        'gen': 'af1d66d657fb22a17583202cb6fd21883bb0efd592a5bb562a9099918f3ef688',
        'analyze': '5f2011bf06cea214f14bc70e8cdc05d45d0f0c72f6f96556da950d64c2f18007',
        'certify': 'dc1d19c79e08c459affa784d10719e4a34cc4d8e9fde342df2b105a27bbeb44e',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': '022ef1bcec911a0c65213996111425b7b1068f3577a136f25d35c246a0b71f08',
    },
    (30, 'negdef'): {
        'gen': '3ace1009f9d645b53c92a52446010a5e328bff660f543740add46394f5587010',
        'analyze': 'df197e16e3b71b762205b61391021b0141221b56b6958ef8036253798dbfc644',
        'certify': '1c6b3db02d9e2f3874d6877e0f57a9278021e160cb18c33209f43b354115af44',
        'matrix': '99cd95be4256d37431262ea0508f97aad804136145d661ed36c0827be1f63aa8',
    },
    (30, 'posEig'): {
        'gen': 'c13e5ee9421070217cfcf30b7e5c2d8db16ddf4b532fca58d102e4e497bc5351',
        'analyze': '7adf4ce2335feca20a41389d5dca27487672f0eb7f06ddd62f355bbd7f84af7e',
        'certify': '85228e4669bd426d3061caaf5c0f971d1eea43f51bfafe072c4c493c97838b33',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': 'fd9d0b3a60e17f2685251ec593314f7823131aa01f126886bdb6b54b59ab6558',
    },
    (30, 'semidef'): {
        'gen': '3cf32e8d8f0656052b59d6b1badd3c3414cbace7f05ca406bd515e6a35e1977f',
        'analyze': '582a975a98dd3fbcbd86c88230a34e2e08ac933140bca82f2a39ab95cf0706fb',
        'certify': '1df6a3ebd8035552d60ac247c6481076585d414128362d2ea157f89d95f1f169',
        'matrix': '6fa56849a492a73787adbc0b2340816a65e6c1d6648aefffd7da5d96690ccbe9',
    },
    (120, 'any'): {
        'gen': 'befa91e0fa26730242d996ea155ec695ddf56338d8bc4f16709f97036619b84e',
        'analyze': '9faf0edc1dd4cf9ace4cf845f025a63f03f05345afaf037f5caa895efe19c512',
        'certify': '24c161db30e4544bce62dbe7ea39615510e4394c00b6e768d826dc3158e02aaa',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': '10f458ed0ba80bda47618eb15cdcfc10efa571a3cf49528e4123a227fba49d67',
    },
    (120, 'negdef'): {
        'gen': '7d85bca61bcf7feb4b65a350c73f214774df87e7894f2100c67027616f0c84ca',
        'analyze': 'beffa1588996f0ef2c95a4fe4a61cb8210f6c6084a7d22996178303df915d089',
        'certify': '1c6b3db02d9e2f3874d6877e0f57a9278021e160cb18c33209f43b354115af44',
        'matrix': '08792748d94c630a943fe7892e9340083ff9ebe2b52c46b2ac9437c86af896e3',
    },
    (120, 'posEig'): {
        'gen': '36a8ea6bbfc4ca0d3686648c7dade83af3b692022551c0b545d820b281929b57',
        'analyze': 'f1b374155edcafc9d358d5fd2f1f81d235fd8a72370f71dee087f09d3e86b3c3',
        'certify': '8dc1f53a065e403d66668403a98ca20f737c49947c3110f4ddbc04ebeabe2e72',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': 'cc56e7453cec074fa5fa2525f6d0afc1f723f1ba2c0ee03a42cb1f5dce185450',
    },
    (120, 'semidef'): {
        'gen': '3bd4c158dfea645752fb8734bad5cce55f865b04a09391850b49e283d3cedca1',
        'analyze': '7417e78835fef35e0fa184b66d81998865f90784cf4efa902b6cd54a8b5a2710',
        'certify': '1df6a3ebd8035552d60ac247c6481076585d414128362d2ea157f89d95f1f169',
        'matrix': '3083809c45554fc6ce95ff186887b5f396de50c54de0f77a6d98028fb6464a88',
    },
}

PATH_DIGESTS = {
    8: {
        'certify': '82cf7df1938f6876e6c850eb9ecb57aae281a08d3750572bd44227b2835654e9',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
    },
    13: {
        'certify': '10299268032410695abc685b0a951c46fb2e5155d619e72c6cdea63a91764e77',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
    },
    24: {
        'certify': '7385aca63a16931678de40fabc6ec39a050da95710f9a1980dfaa75396fe6465',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
    },
}

GRID_DIGEST = '0c7f6e222c5411f434940fd3f557062e7c7e822a44782e50a9112116670326a7'


def run(argv: list[str], written: str | None = None) -> bytes:
    """exit code, stdout, stderr and the written file's bytes, NUL-separated."""
    if written is not None and os.path.exists(written):
        os.remove(written)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    if written is not None:
        parts.append(Path(written).read_bytes() if os.path.exists(written) else b"")
    return b"\0".join(parts)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gen_digests(pieces: int, profile: str) -> dict[str, str]:
    """Digests of the five commands on one generated manifold, in the working directory."""
    digests = {"gen": sha256(run(["gen", str(pieces), "--seed", "3", "--profile", profile, "--out", "m.json"], "m.json"))}
    digests["analyze"] = sha256(run(["analyze", "m.json", "--json"]))
    certify = run(["certify", "m.json", "--out", "cert.json"], "cert.json")
    digests["certify"] = sha256(certify)
    if certify.startswith(b"0\0"):
        digests["verify"] = sha256(run(["verify", "m.json", "cert.json", "--json"]))
    with open("a.json", "w") as f:
        json.dump(rows_to_json(decomposition_matrix(load_manifold("m.json")).sparse), f)
    digests["matrix"] = sha256(run(["matrix", "a.json", "--json"]))
    return digests


def path_digests(n: int) -> dict[str, str]:
    """Digests of `certify` and `verify --json` on the n-piece slowly-closing path."""
    save_manifold(slowly_closing_path(n), "m.json")
    return {
        "certify": sha256(run(["certify", "m.json", "--out", "cert.json"], "cert.json")),
        "verify": sha256(run(["verify", "m.json", "cert.json", "--json"])),
    }


def grid_digest() -> str:
    """One digest over `matrix --json` on every matrix of the two-piece grid, in grid order."""
    diagonal = ["-3", "-2", "-1", "-1/2", "0", "1/2", "1", "2", "3"]
    chain = hashlib.sha256()
    for a11, a22, a12 in product(diagonal, diagonal, ["1/2", "1", "3/2", "2"]):
        with open("a.json", "w") as f:
            json.dump([[a11, a12], [a12, a22]], f)
        chain.update(run(["matrix", "a.json", "--json"]) + b"\n")
    return chain.hexdigest()


@pytest.mark.parametrize("pieces, profile", list(product((5, 30, 120), PROFILES)))
def test_gen_outputs_are_byte_identical(pieces, profile, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert gen_digests(pieces, profile) == GEN_DIGESTS[pieces, profile]


@pytest.mark.parametrize("n", sorted(PATH_DIGESTS))
def test_slowly_closing_path_outputs_are_byte_identical(n, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert path_digests(n) == PATH_DIGESTS[n]


def test_two_piece_grid_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert grid_digest() == GRID_DIGEST
