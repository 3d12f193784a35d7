"""Pinned SHA-256 digests of CLI payloads the benchmark's golden digests
do not cover.

``exponent --method predict|theorem`` payloads are pinned at n = 11 and
12 on seeded Z1, Z2 (several partial chains), mixed and plus-extra
shapes.  ``network`` runs, with and without ``--copies 2``, are pinned on
the factor text of every corpus matrix and of seeded factorizations at
n = 5..8, and the n = 9 ``--copies`` refusal (exit 3) with them.  A
digest changes whenever a byte of an ``oscillax.<name>/1`` payload does,
so any such change must come with a schema decision and new digests.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from oscillax.cli import main
from oscillax.exponent import (
    generate_z1,
    generate_z2,
    random_oscillatory_factorization,
    with_transpose,
)
from oscillax.matrix import dumps_matrix
from oscillax.seb import (
    SEBFactorization,
    chain_layout,
    compose,
    factorization_to_text,
    neville_factorize,
)
from oscillax.verify import corpus_matrices


def digest_inputs():
    """(name, factorization) pairs, deterministic for a given oscillax."""
    out = []
    for n in (11, 12):
        layout = chain_layout(n)
        d = tuple(Fraction(1 + i % 3) for i in range(n))
        full = generate_z1(n, n, 7)
        shapes = {
            "z1-2": generate_z1(n, 2, 1),
            "z1-5": generate_z1(n, 5, 2),
            "z1-n": full,
            "z2-2": generate_z2(n, 2, None, 3),
            "z2-4-lone": generate_z2(n, 4, {3}, 4),
            "z2-4-run": generate_z2(n, 4, {3, 4, 5}, 5),
            "z2-5-gaps": generate_z2(n, 5, {4, 5, 7, 9}, 6),
            "z2-n": generate_z2(n, n, {n - 1}, 8),
        }
        for name, part in shapes.items():
            out.append((f"n={n} {name}", with_transpose(part, d)))
        mixed_upper = layout.mirror(generate_z1(n, 3, 9).l)
        mixed_lower = generate_z2(n, 4, {3, 5, 6}, 10).l
        out.append((f"n={n} mixed", SEBFactorization(n, mixed_lower, d, mixed_upper)))
        # an extra factor on the lower side of a Z2(5) shape, upper side
        # pure; refactorizing the second one leaves an exact class
        extra_cells = {"plus-extra canonical": (2, 3), "extra refactorized": (3, n)}
        for label, cell in extra_cells.items():
            lower = list(generate_z2(n, 5, {4, 6}, 11).l)
            lower[layout.lower_slot(*cell)] = Fraction(2)
            f = SEBFactorization(n, tuple(lower), d, layout.mirror(full.l))
            out.append((f"n={n} {label}", f))
    return out


def payload_digest(tmp_path, capsys, f, method):
    path = tmp_path / "input.json"
    path.write_text(dumps_matrix(compose(f)))
    assert main(["exponent", "--input", str(path), "--method", method]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# recorded from the payloads before class recognition read chain widths
# directly (when it still looked supports up in a per-pattern catalog)
DIGESTS = {
    "predict": {
        "n=11 z1-2": "7cc06da05dd2e46dbfdee83b42068521a78ef319d1a1b0df591aea477be3aab8",
        "n=11 z1-5": "2f933b2f9469afde667539dfbe8ed423cc26dd05b7dda41556d484bb7412f964",
        "n=11 z1-n": "9394b260ca8152e544f826a910efb64b24ccc4c779c7eb9050f80ef167161790",
        "n=11 z2-2": "6dbb77843271e2aad32217517bda4525553cfd1c248fa221e3fcf245e310c151",
        "n=11 z2-4-lone": "04c8a3c689a284e5c839d8ffe0bb22de0f3e75ab324efc3840a47c0967c078b5",
        "n=11 z2-4-run": "e75b222050d06d3d2dfd8ccd19d216286f7494bb7f53eae8b8581bf782c22d1e",
        "n=11 z2-5-gaps": "d68f4949276bed8c3ef7c3e2ee50ddc0202a06e36e8cf9107277bfd964935062",
        "n=11 z2-n": "1d3a3df41800833c94ba46cee4ffaab08f081df5a55898fe1b2934e5024fa014",
        "n=11 mixed": "0760ab610a456ec28a4f44be003b55e147b4cf5b55e3b7b7ecd259f39f3c2ab7",
        "n=11 plus-extra canonical": "9bd9f33ce3b0759a8596d6b0fe6e2d315054f0cf41e31717f22f6907a3cb6310",
        "n=11 extra refactorized": "bb3f491a9866ab94ec9a95aa2ce492ead6a2e0edd23112b065612f3b56bc0d3a",
        "n=12 z1-2": "7d30c48ccc2c75b22182188df04d607553f7317cdfc5da42024688b06f1b008e",
        "n=12 z1-5": "f7d026403d46d56e412e6d7883733c625fe829acf56b93c45c17304ab995d2ef",
        "n=12 z1-n": "02c0a3973c820b18bccb8acc41dd7822c98c6ce02c95676da155804a0e0b7d5c",
        "n=12 z2-2": "86603ac047d8130f934db04da50e5d12278781a41cf2eee25778cf90521730ef",
        "n=12 z2-4-lone": "676f0b87f5351103c56c92593696748d8caa9493fa5ec4fcefd7b38db2e98309",
        "n=12 z2-4-run": "76992765e8f0a204ea63037dc31789b5e6f049aecf4af751c1298300cdc3a374",
        "n=12 z2-5-gaps": "281c20e96bc833711c510e6f6f55d732c5984351e9c1a53ffe286b7216c8d0ca",
        "n=12 z2-n": "02b74bd6a77dfe6935f06610340aa47bb257e1c8d53b0970c29cfbe494594601",
        "n=12 mixed": "3b7007790a3e96dbb99371391b0d6791cf296af58f48b61edd13c9abac9de1f8",
        "n=12 plus-extra canonical": "25c540eb1adbdd9bdfa1e2fa30e2d819cddccbebaefaf8db1ca0be0e6e6b0c5c",
        "n=12 extra refactorized": "59703206c0a060b0352d279f24180f53777c7caaa6ab5104e709ae285716cf2a",
    },
    "theorem": {
        "n=11 z1-2": "c946d1705b803be6a7d1eff7ea69756312af2709be6ab6844ded7610f730c647",
        "n=11 z1-5": "42d2f26e1d6a93b94f6b541d7fb3efe25045d7f2ccbb0e349358ecabdad2611c",
        "n=11 z1-n": "34602a910bae6c6a073b95323f55b5d439911192c757628c4c223cd422384c02",
        "n=11 z2-2": "74b39888de97535cbc4dc44c99385062bf72d28930d8acd9b29b6e0907834e8a",
        "n=11 z2-4-lone": "d42849f5ffa2b64a500c013cf48b98deef81c96a06a1f8d556613e3314571b2f",
        "n=11 z2-4-run": "0930fe481e59672eb9d1e08bb46315623f856a8af77c128a4535153fcc1037c5",
        "n=11 z2-5-gaps": "95cb84330bbb9aa2688c494cbf3900ede19861b30b2091e73d182baf68c06c93",
        "n=11 z2-n": "399ce6e74c292b0f5266298c5f2bd0b068cd186418a5a240edaf90c55fde1703",
        "n=11 mixed": "6fdc4b2cd55b1537af8aa92c89b8466964237e63dff842167e14b1832851f65b",
        "n=11 plus-extra canonical": "cabf7b3269dff952be36340855ef094d39829f0f7b888d943aa7e6b27f777727",
        "n=11 extra refactorized": "f0a7e75d3db0227f1f9829dfbdfc4b694b178b9e974109662a41d885aa78dc82",
        "n=12 z1-2": "e01a7321c14edfdad555820ccf4543664d61aed642fcdfeab5d5cce28379f822",
        "n=12 z1-5": "5c5a797cf16f954843e430a7f97ad6d7d356e0c647137649452d27cf3fffdd28",
        "n=12 z1-n": "3f05558eee08922d5b0eff72169d73c9b7e6c6c2d48b867f12b6cc0f63f5b134",
        "n=12 z2-2": "8e828dd2144b4af0ce1518d1ef5a9d7ed3bd7eee0e2a13d2a474ba10b39c4888",
        "n=12 z2-4-lone": "4fe52619d4cf5b8d82ba7f6335bd4fbf8e77d59ced167e218c8d14ffe7c325fe",
        "n=12 z2-4-run": "617c96af976e11d03eed8b628cc0ca0d54a000941f5541d9462117300b2ad4d8",
        "n=12 z2-5-gaps": "829066440704d8ec360d73187aafc364979a1d1736d7e3d57ed97a369187103b",
        "n=12 z2-n": "c43f030517b011e74e2527b7cc678905018988613009c78c4f1882eb2af5c648",
        "n=12 mixed": "7b4c87715036f0c8ea419462f000f5d8aadd0f1239b7f53ede87e55337342bc5",
        "n=12 plus-extra canonical": "8e2984e1deafeb6084ec79f90489768afa0f017fb35dfc6f9dd9309903e9a0d8",
        "n=12 extra refactorized": "d97cd65afb963e10a66731c668aa61c8f20693d0f261f1aaa7c65c2ae5965395",
    },
}


@pytest.mark.parametrize("method", ["predict", "theorem"])
def test_exponent_payload_digests_past_golden_sizes(tmp_path, capsys, method):
    got = {
        name: payload_digest(tmp_path, capsys, f, method)
        for name, f in digest_inputs()
    }
    assert got == DIGESTS[method]


def network_inputs():
    """(name, factor text) pairs: the corpus, one network with no L2
    (an unreachable corner), then seeded n = 5..9."""
    out = [
        (name, factorization_to_text(neville_factorize(a)))
        for name, a in corpus_matrices().items()
    ]
    out.append(("no L2", "L3(2) D(1,2,3) U2(1/3)"))
    for n in range(5, 10):
        f = random_oscillatory_factorization(n, random.Random(n))
        out.append((f"seeded n={n}", factorization_to_text(f)))
    return out


def network_digest(tmp_path, capsys, text, extra):
    path = tmp_path / "input.txt"
    path.write_text(text + "\n")
    code = main(["network", "--input", str(path), *extra])
    captured = capsys.readouterr()
    run = f"{code}\n{captured.out}\n{captured.err}"
    return hashlib.sha256(run.encode()).hexdigest()


# exit code, stdout and stderr of each run, recorded while network layers
# were a record type of their own (down/up/scale) beside the factors
NETWORK_DIGESTS = {
    "plain": {
        "elim3": "d7741d2ba69eae86df522b36f1c22696994d7577742fff28003a35cbca6f6cff",
        "basic4": "f33376b70706f999dfc2e43849922200edf3751d5746647c8ed7217000a88b6b",
        "net4": "e9d7a2dcdb539cc3d346ffafb9650e65574d70943ee611465787bba289089f74",
        "exp4": "71270a891f5e24ad09f70e20cb8c66bca1dc07cdea388c268538b1276a402855",
        "exp5": "1f4502f3b16a9d7daa799cba9bc481329572ada72fc6d9b65253d8fc33803682",
        "pair_a": "b65bbced0da284a137fa89fdfe7091589299dd692666f90702b9f601c0ca062a",
        "pair_b": "f57aee312e0769375fcccad9c0f1591fa97158c28b6bf90f88ef9e934c705359",
        "early_a": "0c557a0299b6bdcd61b824b85403c99039e6919c9c63c29c2181160fc121ae32",
        "early_b": "46ba6d71fa58e997f9fe12b62e54028276ef83731061bc3ec271416f9e9f61a7",
        "bound3": "87607760dfd0d308e03b6e811fea7f07f506c24c73b0b8d6a504cc0488826959",
        "no L2": "4a11fc8a666e2384e83f1e999899bf5f2c0a28070faa25ec26a48edee3b27c8c",
        "seeded n=5": "a50c39aebfb3003d06d75fcd4396e8071cd082af7f3e4613658dbb4821877dfb",
        "seeded n=6": "6b6bea0dc663195377f53bc7590ea3839258e49d66c67d314e907e4fbcc3ef3d",
        "seeded n=7": "5f77714cef96ff5f7a164bd29e2282b45f44b2c97f14597c01af3654200decb7",
        "seeded n=8": "7da2b830a4924e11ea3265bae8dc8b90af202f56f1826dfd4883e59952fd8e02",
        "seeded n=9": "19858ac8a5a90157aad06733cb894e9dc99631dfeee0fe44324193f85ac59d17",
    },
    "copies 2": {
        "elim3": "489a15c3ce2ea9a373ff3fb053e9e514f788f2e990f5ac79d003fd437c92e23a",
        "basic4": "eb0505f4bf9d6ff4615765df2176aec6f7fcd47f2ec605eae80e9e3d86d82214",
        "net4": "9bfb651b971c6e1adb1c8f723b699227b813fd2c64cfc80e87fceabff9d83eca",
        "exp4": "e370c431a8a7965a448f6c5c3fdead28a390e0c16be44da4c2b5e3de5ba6669f",
        "exp5": "457597292b5762698fb3d215cf8b68f3832959b9608cab6fa7e7455848664cee",
        "pair_a": "801be37648c895c7e07e7e9214d02166a762b67ca9b0c3736acdd528226d6d69",
        "pair_b": "20363f08688fe82fcf7839b10d0d4f478e698f881c6f9dea51e61cb928cf994a",
        "early_a": "df9b7fe1a5eea4204099dfebb30ee914c6cfe61cdd2f88e3ff0ebe1b0229889c",
        "early_b": "c0b129aaa9380891910b124a2e1e8ebcbdd3ba9710f1d1ac41dfcf3ec1174865",
        "bound3": "f49ab314be363504b9a371f742ea262f1f3f24f6c884721a0909ebb1a0eb8870",
        "no L2": "72aef6e3534afea455c3c0971c40d8be5ba2786a83a1f0facddef0897dd88c9c",
        "seeded n=5": "796e3bc2ba48f9bc43797cc165cf809c5ba2b8a981afdcba576e666596e562e2",
        "seeded n=6": "ecd3cd0de09a88ca34610861c726d966b65a88bb4d38d7d0b7d4fced96edaf7d",
        "seeded n=7": "30598c9f08a727f827860ad368fbe78e30579c36b67ff57d79daa9a9c4b1ffa1",
        "seeded n=8": "efd1f539ae74cb612cc6c8157e2c04ff0a9fc619952f0836777cd7af0589900b",
        "seeded n=9": "7f68386c451fa8535922982723f4f75826bf82d95c3bb568ed7f776d3624548e",
    },
}


@pytest.mark.parametrize("copies", ["plain", "copies 2"])
def test_network_payload_digests(tmp_path, capsys, copies):
    extra = [] if copies == "plain" else ["--copies", "2"]
    got = {
        name: network_digest(tmp_path, capsys, text, extra)
        for name, text in network_inputs()
    }
    assert got == NETWORK_DIGESTS[copies]
