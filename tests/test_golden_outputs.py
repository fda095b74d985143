"""Byte identity of the command-line outputs.

Each digest pins the SHA-256 of one command's exit code, stdout, stderr and
written file: `gen`, `analyze --json`, `certify` (with the certificate it
writes), `verify --json` and `matrix --json` on `gmsurf gen` inputs at 5, 30
and 120 pieces, seed 3, in every profile; `certify` and `verify --json` on
the slowly-closing paths of 8, 13 and 24 pieces, whose positive vectors
take shift-invert solves; `matrix --json` on the two-piece grid of
acceptance criterion 1; and, in `COVER_DIGESTS`, `cover find` in text and
with `--json` at genus 1 and 2, on one and on two boundary circles, for
alpha 1, 2, 3, 17 (a circle of type 2,2,1,...,1), 101, 400 and 2001
(`COVER_DEGREES`).  A refactor must leave every byte
as it is; a change meant to alter an output re-records its digest and says
why.

A JSON stdout (a command run with ``--json``) and a written file are hashed
in their canonical form, ``json.dumps(json.loads(text), indent=2)`` and a
newline, which is the text the package wrote when the digests were
recorded; separately, their raw text must be ``json.dumps(json.loads(text))``
and a newline.  The two checks together pin every byte.
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
        'analyze': 'd27ab749d1e345a16d53399841fb320a68b36ac5165bbbdb08df6eb9fe2f9cdd',
        'certify': 'fbe4de65aa5148555b96503452979fd30f1f4faa96af63285604915c98c96675',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': 'd0dbcb001dce3d99a201507501f5b76a6691c45c9e54b4c841de69121d529cd3',
    },
    (5, 'negdef'): {
        'gen': '268e20889c8c8347ffe92db803af4e2e3d25e3ce2367b961f163a2c247770d19',
        'analyze': 'f4c69ecd1290b726a2f93c850b3b8b9985f5dde8065799da8b76c49946fa3cd4',
        'certify': '1c6b3db02d9e2f3874d6877e0f57a9278021e160cb18c33209f43b354115af44',
        'matrix': '40483e261c8e8d182c5aa0fcfa56aa1f9faccc1a43f68bed8cabc985a59f205c',
    },
    (5, 'posEig'): {
        'gen': '2acc4b0beb15b033f433251563bab94174b8a4c3f5b494a562ab1bfbffcb6856',
        'analyze': '83a97a2cf7247fa03e8bdfe6ba57d4265dd2daf29624ca9a88829fd5f07377dc',
        'certify': '914a40bae02a4ee218ebb438a3f146c7b5c936f61ec30718f332beeb1b05a9d3',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': 'cb66db1ae45e0c205db378b250d1f579396c982d81194195e8a316edf5ecab9d',
    },
    (5, 'semidef'): {
        'gen': 'b8259444ee42f7daa94ceb93b63403c66fc238ba6d88e8420fba4caad5d1c575',
        'analyze': '9529b9bd63849bd5a7ab310c665116b4ce8bd7a6fd8f69a9af962410860a6394',
        'certify': '1df6a3ebd8035552d60ac247c6481076585d414128362d2ea157f89d95f1f169',
        'matrix': '54a727ecdd5c688483e5097f9ada0d8a57c8de56976b589ce8f277df0b7a1123',
    },
    (30, 'any'): {
        'gen': 'af1d66d657fb22a17583202cb6fd21883bb0efd592a5bb562a9099918f3ef688',
        'analyze': 'de1f528f42003d56e0482691ff9805dd788d7b12c8ed59930d8951c08963e9b3',
        'certify': '64697bdcda5142ce229ab79b387a069b6a77debd7ed6a4201476a9ea9b8d49ee',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': 'ecfea66ecdcf0086a0b4bd170e20038cc75a8a41ccd3ac58e46eb20e9a7d6e5b',
    },
    (30, 'negdef'): {
        'gen': '3ace1009f9d645b53c92a52446010a5e328bff660f543740add46394f5587010',
        'analyze': '6d055b4079ffa9d1fcb21f4b4e4640312704b5be76933b9d81d9932af230899d',
        'certify': '1c6b3db02d9e2f3874d6877e0f57a9278021e160cb18c33209f43b354115af44',
        'matrix': 'cdb61bfafe293924e273fbc5f93433143769d511818a0d34bdfc08b9366a6bbe',
    },
    (30, 'posEig'): {
        'gen': 'c13e5ee9421070217cfcf30b7e5c2d8db16ddf4b532fca58d102e4e497bc5351',
        'analyze': '8c63f858496b956c6cfc2e888b65e64c2ac27826b4966f7a68ebc9b9c6ad04c5',
        'certify': '19ea440686e3e61a088b54574e2714b47bcf8d0c85960e04f88dbec76c073939',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': '23fc83e179651082816e01d2607ed8d069aa7ae06f0743ba54e6f2e2cf8dfbda',
    },
    (30, 'semidef'): {
        'gen': '3cf32e8d8f0656052b59d6b1badd3c3414cbace7f05ca406bd515e6a35e1977f',
        'analyze': 'b453996559216e90cff5ce4151a1689d91358af1689cdffcac261408f118b089',
        'certify': '1df6a3ebd8035552d60ac247c6481076585d414128362d2ea157f89d95f1f169',
        'matrix': 'f41d2e12425d1878baaeceaf60474f9527174a9f603a661d696657132a730649',
    },
    (120, 'any'): {
        'gen': 'befa91e0fa26730242d996ea155ec695ddf56338d8bc4f16709f97036619b84e',
        'analyze': '3031408df9f486952ff4d6aa655685df95ee1c62df9db446b028b3ecd24fca24',
        'certify': 'a28a27042dc1e06b54d1a64608e051fb1c10773e45fb97bf658646c2f8cfce20',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': '2dc3316d2597a26c6261d66887d1d24797283801f4f0c5e8f2f8b5fea1eb812f',
    },
    (120, 'negdef'): {
        'gen': '7d85bca61bcf7feb4b65a350c73f214774df87e7894f2100c67027616f0c84ca',
        'analyze': '527e4a9f22435855fc1633113940cab4a2e982b793294c8ace720de8453c5b56',
        'certify': '1c6b3db02d9e2f3874d6877e0f57a9278021e160cb18c33209f43b354115af44',
        'matrix': '7a7e77be1e74baaced4aac83cb2938c154ee14ac18e43613f9d94e7a517c0929',
    },
    (120, 'posEig'): {
        'gen': '36a8ea6bbfc4ca0d3686648c7dade83af3b692022551c0b545d820b281929b57',
        'analyze': 'd7a333cc40c886754725399a7e6d882ae175c0729289293c4c2fe5aaf5210e1d',
        'certify': '89b3b6bfa4e183966b124c1a6c2f1702b9278dab4859ed695e9f6e5ca4e895d3',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
        'matrix': 'c66f6838765a2d276b7a213ca1288108e4da18e1b0ba118eeaf6c369e1f70d31',
    },
    (120, 'semidef'): {
        'gen': '3bd4c158dfea645752fb8734bad5cce55f865b04a09391850b49e283d3cedca1',
        'analyze': 'a8280acd8749af9570d95b299407ff2da02b6193e3caeffbca6de28d6b7a6c67',
        'certify': '1df6a3ebd8035552d60ac247c6481076585d414128362d2ea157f89d95f1f169',
        'matrix': '9492cc3e00573209be1995a17ff60d7744d411058704e12363ce888f0a8b5294',
    },
}

PATH_DIGESTS = {
    8: {
        'certify': '95ae7f2b9b5f83302bd81b93b936564eb5458b3b47cf79dcb11905eaa49be59b',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
    },
    13: {
        'certify': '6864156d3ea447e681d88d626c836cc422b0c4f8a303796282f28654d5d98c92',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
    },
    24: {
        'certify': '1347d3365ccef44d430a6177f063837cc235401d63f8c0026bfd54f511196258',
        'verify': '04e291696517ed0794364075ea439cd26f708f6d0d9e42838e11cdbc26ba6501',
    },
}

GRID_DIGEST = 'f81ca294a78621664ebb7a014b9586aedec3644757d28baf8638264287e18607'

_NEAR_17 = ",".join(["2", "2"] + ["1"] * 13)

# (circles, alpha) -> the --degrees of a parity-valid spec.
COVER_DEGREES = {
    (1, 1): "1",
    (1, 2): "1,1",
    (1, 3): "3",
    (1, 17): _NEAR_17,
    (1, 101): "101",
    (1, 400): "200,150,49,1",
    (1, 2001): "2001",
    (2, 1): "1;1",
    (2, 2): "2;2",
    (2, 3): "3;3",
    (2, 17): "17;" + _NEAR_17,
    (2, 101): "101;60,40,1",
    (2, 400): "400;300,50,50",
    (2, 2001): "2001;1000,1000,1",
}

# (genus, circles, alpha) -> digests of `cover find` in text and with --json.
COVER_DIGESTS = {
    (1, 1, 1): {
        'text': 'c1591cb5fb928abdc230851c6bf71c6da28fd8fafea316a3f7661cf4380e6f30',
        'json': 'f19e4b38185ce540e1a9896d03d518c139462cce8cad3b5142f72f87e753690a',
    },
    (1, 1, 2): {
        'text': '2773e2bd2634e8c7c91991433fe522a50dadad3cad0acc50bc5c2149cf115da7',
        'json': '97f9013b8d06240b7110f7990495e09c3ae2aa1909d028c3ccb7bfc6d9132fcb',
    },
    (1, 1, 3): {
        'text': '455a86f624a5eaaa528d99b9a2eb014c1ef6ffada1518f152526166e02200fb1',
        'json': 'cb504214659a1e3c0a69958bc4353794df03aba5bfcf0f2ab7393c387e00f3c0',
    },
    (1, 1, 17): {
        'text': '007841f07e334b0fe3367365645b7cad88ce3dbcaffb2bcdc94cb9745e005522',
        'json': '650e0254a5c02416b96d21bdb229125774443b63f34c61f9b969299e21dceef5',
    },
    (1, 1, 101): {
        'text': '6872a5e7401dfc8a8a918dd599d4088ddb06064ec51de2d5a1a9c3143fd324aa',
        'json': '85ecdaa7a96cbabb683e9a3c9f2c0c1a3dee9d3fd2a05808b0ef5a64dd999f90',
    },
    (1, 1, 400): {
        'text': 'f54b3241be9c84cf63c76198682d3ba28cf154721f7c8aaac48316856efcdc4b',
        'json': 'ddd8299e1989710a3dc645bd851c3ab63c52188b24185ad2a3e2b2e166605b8b',
    },
    (1, 1, 2001): {
        'text': '0d0c6f02618ff41385eca2a3958350ef4a8e1f2cd4b07a7c2a898ec705dcbb4e',
        'json': '8b1015db4dbd42059b8362bd920ba4242845ed89939ad097e045ae8ba0cb3016',
    },
    (1, 2, 1): {
        'text': '51266779a27dd39cbf11174edfd9484c3382ad05c560b965963db780ecc893e1',
        'json': '8eedc9dcf6876828c38ebec35d3de14e78f0f4761e61cdacaf032efaf4aceac8',
    },
    (1, 2, 2): {
        'text': '44c54bc671180c82f142b1abe6843e6d84b1eb7e5caa93935b68ddd30e62ec70',
        'json': '1c85bd05ce6d1dfc2ddf2c6c482746984376325c2780d2343ac0776f7bed6666',
    },
    (1, 2, 3): {
        'text': '89c8d5b4173b1c465de3077cf6f2f0d208dc51f92a28178fe587d50d6ab07c14',
        'json': '3718a526599c5242b0553799f1612173b51ded64d4b11b756951f6372631790d',
    },
    (1, 2, 17): {
        'text': '4cf92cf2298fbd49b1b18f36aa9d7e10a3426ba328d5a1e3543699d368258287',
        'json': '94f37534eee88b1cc347511bdd80e6cc488d1714b6b7224abb3999ef6dddf641',
    },
    (1, 2, 101): {
        'text': 'd2a7bee1c15552707ec032d9d6b1bc9b997531583774043450873ee8f705ab56',
        'json': 'e0564c37e64e3a01c767d51dd8937e90a11f0573cd42853e4d19e6c14bbb512e',
    },
    (1, 2, 400): {
        'text': 'e88fa9d16dd2959cce4c35cf415a944e7ebb89ad20d033771f90bca72ad20710',
        'json': '793c07edaf470c65ca0691cfd1e5b8a218ea3c763189087b60560a977648d3d5',
    },
    (1, 2, 2001): {
        'text': 'fa38d9280e33f9a75d88894700ea4df116cc8a5c0f1dea62a1c021fcc7ae795b',
        'json': '825af6164a7f6f54783e72ca500c60a08c66e2cf58b843191ce47468e85494e6',
    },
    (2, 1, 1): {
        'text': '1c60f1030c22d764de2b4fab8ca86d19af5aa1281e38eb15f09e1a87fccb8c2a',
        'json': '954905a9394f0a67eb95f2f4a7ce09ddbf7e8b832662ecaef7eb881dfc287ec0',
    },
    (2, 1, 2): {
        'text': 'd320e8456a848eb6e7039c2e153228cdc2af0d35239e69b8a0bef172987e20fa',
        'json': 'd76ea2bad926917c27742b491128a756b029b0e5f7f058af80278e40f82e64d4',
    },
    (2, 1, 3): {
        'text': '77d39e4b32d28054313a1b5d0ea3ad6b9fbcb91d6610daab755e90319c280939',
        'json': '2933a91065e1cacf9129cce6a73dfacdd9dfe5126aca9f8a96d52f4ac6269a42',
    },
    (2, 1, 17): {
        'text': 'ef906b46bf791b112fc48c3a06e92edd82daebff6e8abf3f81fab86e28eea228',
        'json': '1f16b17ac01f40b9eea9a7b50e7a4c160064a6c025cbfcb7aaba6de0682349a1',
    },
    (2, 1, 101): {
        'text': '552e742c1868e3d18730101b0acdff219109b809ed8ea1a045fecad671333031',
        'json': 'ad73b1c03150a2a34a44b68fe826faf1162aebc4c698e79666890bded063ce92',
    },
    (2, 1, 400): {
        'text': '7c14a13429eaec46ca30671de5965fdbd9e3b33c47fe50b4bf3e314b03fc1398',
        'json': 'faaaf8287d7e8afedf8722191b26d1d8fa2d665804b3479fb63ab17a7c99e2c3',
    },
    (2, 1, 2001): {
        'text': '06f6017e43718079295df5d18890e236cf7caf24d0e248a3363b317f036d720a',
        'json': 'ca27c96e2cf31607f6e1b48323c43aefa2375a63fcc67512c2cbf6d9b48778fb',
    },
    (2, 2, 1): {
        'text': '2a07664fa77da5bd5d2b9a6acf3bbb9a0d6dacdd9c26d3dc5eafd655739c67ee',
        'json': 'c3a7fabe3ac78d0d2b458fe943cef4988de35927c5d47aa4306094c05aae8316',
    },
    (2, 2, 2): {
        'text': '5b7c9e8814daa016fa466667e9f5d21033f00aad306c9058fab807292a5973dc',
        'json': 'fbb25d52fe79b7d58f560da1879a5319f429cfdc61e619fdb3c6991209c45ad4',
    },
    (2, 2, 3): {
        'text': '370263e8bdf03ccde6f0699f83975ff59351b63cc1aa5a32f58e4c754f79da1a',
        'json': '9e413416fa0f259b7386196699474dff109ffe5a2b6bbfa4004aa23ea8fd4a1b',
    },
    (2, 2, 17): {
        'text': '3f182406f9e18c9d289e4cc80d7e99c453a9bf29262edcd5eb86a0d4b3a74578',
        'json': '12c809de59fb451cdbf679bebe93419d440525bfd519e13cc8b37d6678a18700',
    },
    (2, 2, 101): {
        'text': '172ff829c36695335fa9aacc66b65edd22af5b50242e721f4d5574aa54f3b555',
        'json': 'd2a2754a70e05d47b92f33c5298d8c1f03eef18b93929a8d53f7ab1efaf630af',
    },
    (2, 2, 400): {
        'text': 'c200f6806a09e6123c12cbb0660f1eab81671534166ffda5f2b3ed24bd03ee2e',
        'json': 'e1c3cd8c04b6b25e2fa921bbef3ce27d7feeb8ea749be1aba66572af1791789e',
    },
    (2, 2, 2001): {
        'text': 'fba30f6b0b20280a854a0a813928fd19b94e0d380c0965f6a9dcfd45aa8b93e7',
        'json': '3941b586231e4691cc58f58a3a711e6d89cea7dad9b0ba2dc84d10da1dd8590c',
    },
}


def canonical(text: str) -> str:
    """The canonical form of one JSON document's text, which must be the
    document as ``json.dumps`` writes it by default, and a newline."""
    doc = json.loads(text)
    assert text == json.dumps(doc) + "\n"
    return json.dumps(doc, indent=2) + "\n"


def run(argv: list[str], written: str | None = None) -> bytes:
    """exit code, stdout, stderr and the written file's bytes, NUL-separated;
    a ``--json`` stdout and the written file in their canonical form."""
    if written is not None and os.path.exists(written):
        os.remove(written)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    if "--json" in argv:
        stdout = canonical(stdout)
    parts = [str(code).encode(), stdout.encode(), err.getvalue().encode()]
    if written is not None:
        parts.append(canonical(Path(written).read_text()).encode() if os.path.exists(written) else b"")
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


def cover_digests(genus: int, circles: int, alpha: int) -> dict[str, str]:
    """Digests of `cover find` on one spec of :data:`COVER_DEGREES`, text and --json."""
    argv = ["cover", "find", "--genus", str(genus), "--alpha", str(alpha), "--degrees", COVER_DEGREES[circles, alpha]]
    return {"text": sha256(run(argv)), "json": sha256(run(argv + ["--json"]))}


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


@pytest.mark.parametrize("genus, circles, alpha", sorted(COVER_DIGESTS))
def test_cover_find_outputs_are_byte_identical(genus, circles, alpha):
    assert cover_digests(genus, circles, alpha) == COVER_DIGESTS[genus, circles, alpha]
