"""Pinned SHA-256 digests of CLI payloads the benchmark's golden digests
do not cover.

``exponent --method predict|theorem`` payloads are pinned at n = 11 and
12 on seeded Z1, Z2 (several partial chains), mixed and plus-extra
shapes, and at n = 13 and 14 on TP inputs and a Z2(3) shape, whose
payloads are mostly repeated ``with_extras`` or ``exact`` entries.
``network`` runs, with and without ``--copies 2``, are pinned on the
factor text of every corpus matrix and of seeded factorizations at
n = 5..8, and the n = 9 ``--copies`` refusal (exit 3) with them.
``factorize`` (JSON and ``--form wq --format text``) and ``classify``
are pinned on every corpus matrix and on
seeded TP, basic, oscillatory and ITN-only factorizations at n = 2..10;
``classify`` reports on every one of these invertible TN inputs, past
the scan cap too, since the cap guards the minor scans only.
``exponent`` is pinned on inputs every route refuses.  ``exponent --method
brute|theorem|predict`` is pinned on every corpus matrix and on seeded
class shapes, shapes with extra factors and random oscillatory supports
at n = 2..10, where ``brute`` refuses n >= 9 (exit 3).  A
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
    multiplier_count,
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


def repetition_inputs():
    """(name, factorization) pairs whose class tags list one entry per
    partial-chain pattern: 2^(n-1)-2 ``with_extras`` entries per side of a
    TP input, 2^(n-3) ``exact`` labels of a Z2(3) shape with a lone L2."""
    d = tuple(Fraction(1 + i % 3) for i in range(14))
    return [
        ("n=13 tp", with_transpose(generate_z1(13, 13, 1))),
        ("n=14 tp", with_transpose(generate_z1(14, 14, 1))),
        ("n=14 z2-3-lone", with_transpose(generate_z2(14, 3, None, 12), d)),
    ]


# recorded while ClassTag.to_json_dict still built and rendered every
# repeated entry anew
REPETITION_DIGESTS = {
    "predict": {
        "n=13 tp": "68be3be9fd2d0ab8b611649cea93e45916ae6737c23d533f9733a4194055855b",
        "n=14 tp": "23e42a80b4fb9e405c4ed35af578a621261a55b69c8ed9d69a41f29ae415640c",
        "n=14 z2-3-lone": "870fbf9b62b71ce960615ac68f2710d807cea374f79bd463506937cbbca1aff3",
    },
    "theorem": {
        "n=13 tp": "19a3189d2662263643a9977fc082e58d215d19f1fb7ca038a4f90178ed6d2510",
        "n=14 tp": "a7eefa990d959cca94730feec1c3041d9d6806d12253462bf5bce1a36d487c69",
        "n=14 z2-3-lone": "b90fc6286c42466dbc64c9962b446d76ec5e2e15511dc193ba727513de7f820b",
    },
}


@pytest.mark.parametrize("method", ["predict", "theorem"])
def test_exponent_payload_digests_where_repetition_dominates(tmp_path, capsys, method):
    got = {
        name: payload_digest(tmp_path, capsys, f, method)
        for name, f in repetition_inputs()
    }
    assert got == REPETITION_DIGESTS[method]


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


def run_digest(tmp_path, capsys, name, body, argv):
    """SHA-256 of exit code, stdout and stderr of one CLI run on ``body``."""
    path = tmp_path / name
    path.write_text(body)
    code = main([argv[0], "--input", str(path), *argv[1:]])
    captured = capsys.readouterr()
    run = f"{code}\n{captured.out}\n{captured.err}"
    return hashlib.sha256(run.encode()).hexdigest()


# exit code, stdout and stderr of each run, recorded while network layers
# were a record type of their own (down/up/scale) beside the factors.
# "seeded n=8" and "seeded n=9" (plain) and "seeded n=8" (copies 2) were
# re-recorded when the normalizer began placing the U word through the
# transpose: their factor texts cannot reach canonical order on the upper
# side, so commuting upper layers now print in another order (same product)
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
        "seeded n=8": "8e6681f6daf7d8fcacbc580d9949722424dea2ed3a1e321e6326cfea492ca848",
        "seeded n=9": "6c5cb4b5f35ca06427cdfeb60d5145e1dd89d2b543bccc6cc902846eef6b8e20",
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
        "seeded n=8": "76fe192b98842f8e632696d28338149175fbc9e726bb909a16d204941ac1497d",
        "seeded n=9": "7f68386c451fa8535922982723f4f75826bf82d95c3bb568ed7f776d3624548e",
    },
}


@pytest.mark.parametrize("copies", ["plain", "copies 2"])
def test_network_payload_digests(tmp_path, capsys, copies):
    extra = [] if copies == "plain" else ["--copies", "2"]
    got = {
        name: run_digest(tmp_path, capsys, "input.txt", text + "\n", ["network", *extra])
        for name, text in network_inputs()
    }
    assert got == NETWORK_DIGESTS[copies]


def matrix_inputs():
    """(name, matrix) pairs: the corpus, then seeded factorizations at
    n = 2..10 with TP, basic, oscillatory and ITN-only supports."""
    out = list(corpus_matrices().items())
    for n in range(2, 11):
        rng = random.Random(1000 + n)
        layout = chain_layout(n)
        k = multiplier_count(n)
        chain2 = {layout.lower_slot(2, j) for j in range(2, n + 1)}

        def side(slots):
            return tuple(
                Fraction(rng.randint(1, 9)) if p in slots else Fraction(0)
                for p in range(k)
            )

        d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
        osc = random_oscillatory_factorization(n, rng, density=0.3)
        j = rng.randint(2, n)
        missing = {layout.lower_slot(i, j) for i in range(2, j + 1)}
        itn_l = tuple(Fraction(0) if p in missing else q for p, q in enumerate(osc.l))
        shapes = {
            "tp": SEBFactorization(n, side(range(k)), d, side(range(k))),
            "basic": SEBFactorization(n, side(chain2), d, layout.mirror(side(chain2))),
            "oscillatory": osc,
            "itn-only": SEBFactorization(n, itn_l, osc.d, osc.u),
        }
        out.extend((f"n={n} {name}", compose(f)) for name, f in shapes.items())
    return out


MATRIX_RUNS = {
    "factorize": ["factorize"],
    "factorize wq text": ["factorize", "--form", "wq", "--format", "text"],
    "classify": ["classify"],
}


# exit code, stdout and stderr of each run, recorded while compose walked
# the flat layout itself and the index counts read each side twice.  The
# n = 9 and 10 basic, oscillatory and itn-only entries of "classify" were
# re-recorded when classify began reading an invertible TN input's first
# zero minor off its factorization past the scan cap: they were the exit-3
# refusal, and are now reports
MATRIX_DIGESTS = {
    "factorize": {
        "elim3": "14b962b13e2b6da54c03977b34a01e8fa4d880319a33a091fe2eed9945180023",
        "basic4": "9c8b99321a57cd7a2479b572217f7289a878fd86c61a1ebf29452dd7d4a0542c",
        "net4": "fb2e3abb96e75b4fd1d64f2576c1669678dbb57d8964b30bdc88ae3c02e3e0eb",
        "exp4": "c39f21d93ed770840acee4f2abe5ab089e3c6863899662fbac5ee99bcc0230c5",
        "exp5": "44d196c4e868b9e0599f8fa2bf9d3825b4cc1f694272458e20525f896f5f70ff",
        "pair_a": "e4fd4b06cc84eee5a6f2faacf72885af2673b775e48a60d85fa668442a94ea70",
        "pair_b": "ad32e51ff635479202fb24c0ead26e0ecf9f02550ab1a98d54ef9538201ad6a8",
        "early_a": "c1f80f40b22724512234e036326fc6629c62b8e715060aedfc36b726dd6bd6f7",
        "early_b": "ae0520799c72a5197e8fbda5995fffc022c6f81ca773ee4229580d33e5569a73",
        "bound3": "983ccdbcdd6dcaa167fb4bea4e15d4c0d7deb65b3876a865b25cc89e396ebfb0",
        "n=2 tp": "d45b27a132c877ff173fe823f7bf3062e0f18d3ce81d09abfae81ac929eecd0a",
        "n=2 basic": "61aa56ad5da20f9c61a37ebd14bbbec88d881a0c89163fac0c4458f9cf6e50ce",
        "n=2 oscillatory": "e4a7e0e4d6b4e28f54a88d924ce85f84e92a2a681ecfa2361531143a4f79fff0",
        "n=2 itn-only": "1e555a5ca5f49adf80366ff316f87cd35f9e4d9a123e9ac7f62abd68ae0ae544",
        "n=3 tp": "e4a497a88681b658f9c54b6bcc1337f7826319e5b4486834aacdf46e823521f7",
        "n=3 basic": "203c47108a12430f3749dbf4f8da0a2e2a9feccc4a4202a56e50df95d8543658",
        "n=3 oscillatory": "fa5947e7fe06a69fdb0f40f36af0f16bf6a2e83758bf4d31f4246c281c025dd6",
        "n=3 itn-only": "42d89b943eb58f52efb6e911d5d702c511c48f5d5190620451bc11429ded06d9",
        "n=4 tp": "7320b9606223ddc99e77eb800b34d5c899d414354025712b65c3cb64ff155b6a",
        "n=4 basic": "a7717d03d73a5b948f2ae9c2f357b464961dfa6d88feeb181b969d8862e2a2f9",
        "n=4 oscillatory": "de83819d0f080d7cafb0603c826db191a818cd3e15267de726fb2e8355545bc3",
        "n=4 itn-only": "80ebfcb6bd575ca567d54686257989f80dca68cee359c3c8646e416a1aa4362c",
        "n=5 tp": "814e8dc1f0ba428d963be7ea1d5d09681cb164d6d76d0c32501e91289225ea10",
        "n=5 basic": "95553a225cf27d07f0fae05b6536b74015b4a48b47cf34033b5e67a928492e1f",
        "n=5 oscillatory": "5e2c9ed39e4c8002a47261dbba7972526b7bf004b301b113fa34ed4ea45029fa",
        "n=5 itn-only": "8df194d925341e9c4b9dfd8a1c5902f27caacc09ef70131c1daf78c021e5fd1c",
        "n=6 tp": "834026a878499458e7a8b906592c3564010c1bb0f0c187bf6302930039905f0a",
        "n=6 basic": "f75a9053d2e3b28baea0c61ad231ee8b7bfedee13b43c93df1186cfe603335b1",
        "n=6 oscillatory": "4a9bdd018311914a7d6a977449c410b1b2298493a338434ea712528bcf65429c",
        "n=6 itn-only": "3db41e10bc7b8faa9fa78fc73d9a19ee866bf3cd8ad5df57ed2e572fa1fddedd",
        "n=7 tp": "9b37dae1f3b51bebc5eada31b067420dc52722092349adbb8d572fb9e96227a6",
        "n=7 basic": "49dbb08ff4844b67743056bc619a308199893b43d53955bd2e9085340adc0766",
        "n=7 oscillatory": "d660d8c56af02e82c60a260d499ef8e746b895e1a4ee614e0666bb55e86222e9",
        "n=7 itn-only": "6f6980639e6d690efcc00a0278ab312619338e7ed3826fc214483e0dc8f2c306",
        "n=8 tp": "32e6f884bec22294b973bc498bd66c61c5a267b6d3275a9fc83e32073999c614",
        "n=8 basic": "181b0cc3d651d82611973e2c7cbeb6bb687048d7f36c8ba36227d396735353af",
        "n=8 oscillatory": "c5b0489167ede4557e5e0e9cebae2704ebe052b29b43794b20b54223a67adb65",
        "n=8 itn-only": "e9e11b14166155fb404148af22da1528e29d92f857a930a09c99d40b2fd74be4",
        "n=9 tp": "54af121ccbdb9d53b5aac6442e9497ea8c3ccaed7aa6bea18bf92dc41b5c14b0",
        "n=9 basic": "c8b68d8bd689e02440cf0c37b15509f9388fb78899bd002572b86e515aae80ba",
        "n=9 oscillatory": "46e48a0dfc2453e8bec44f2a6c7cf4dcc341215309b330913cd9716165d910f5",
        "n=9 itn-only": "525c08fd1595946d47d4def9aacdf3c6f971e999498b7dcfef730c7453ec9ad3",
        "n=10 tp": "c5b0b11d7cbe84ea9cef666065357f97baf988914a82d146768fabcb88f41a1e",
        "n=10 basic": "75be2259156ae10505bdb6ebbd5f9485a0aeebb067bb918bb69f69b00375d29c",
        "n=10 oscillatory": "5ea2c2acb539a604f278bd056e4118e33a18b7dc7f7ec63bc121cf3051517f87",
        "n=10 itn-only": "35235d4b2e3056d84cb367650a834df8bb7740dc3f13b2fc1f4898cf6847ba2f",
    },
    "factorize wq text": {
        "elim3": "2e1f92d2ba3d6bc8b9e928e3619ae17516f78115e1e3de0aba7251227c87f112",
        "basic4": "fe3f19c389ae132c399937c4fce32a9519f36a71a215720d281d3974d06b0745",
        "net4": "0da0723d50284d6865234e16bb5336aa00e38c440359f03e6defd86fcefd226f",
        "exp4": "faac636f98ec728aa4be7e88493c1cdc978bc897d668be50f25369d6c1eb6b66",
        "exp5": "910021fcd0869ffb93b5d587d0e21e8dde166fb8700088a5ea8c5e8760fdf087",
        "pair_a": "e0db93081ca7a3f479de145f63896d34b5779267ae7d08cb4886d759fc052742",
        "pair_b": "fe8bc4f8bcbb61da8c6250e2422c10c59343409af0955caf352a6e579b855438",
        "early_a": "9954389c18518726003be31b1da43ea67359a3794b855d8694eed5910909db73",
        "early_b": "2f85808c71688f7f4e4e9757928dd04079e01871af2d151c479788fb0b2004ec",
        "bound3": "910f499a0478ca6dc121ff7934771b48b9b6e861113d37ec162dc95621fd6a0a",
        "n=2 tp": "ba5f419706757f8f5de3ed8cad169f56e7014aa5fd6e33c5842a11b2f0c693f7",
        "n=2 basic": "4c9e050d5f54f9c8450292a90de8de22fd159b77796fade50f6a77b75e61f26e",
        "n=2 oscillatory": "e66cc3c899697c58afbdeae2a35844c661127422531080f2e5bec718aee91762",
        "n=2 itn-only": "829e037f98aa50c85df7cafa5fc1909e32d9e84270e4419cf68a67efe4d1af37",
        "n=3 tp": "ccc82d590780e1235e6294b8dd6b5ab363f4e600c792f7d5767f468291c153dc",
        "n=3 basic": "317b3c352c7ba3e686feea6b874f4cd54c55b4f18a59d310de195178491c011c",
        "n=3 oscillatory": "8c5acbe234539c547b62f21a7ef72016dd114ddfe382589f7aff2a320f220bd8",
        "n=3 itn-only": "57099eedfb1b6c03869660556f0a8f595eb6e8b31866f8a445ad816b3267fa1b",
        "n=4 tp": "80b6af25362a2974bfb3d946ec56ecdcd4c942dccff8df985f2d4a2cc71ff879",
        "n=4 basic": "ae01480c9e72d95883f516a9a16843f2beeb3575a55ba95c045f9deafd21e855",
        "n=4 oscillatory": "b1f2d4b8e9c7f0fa4d8fd4dd488860f9c72123489c5f145646f5200b26c7c5f9",
        "n=4 itn-only": "965f1ab0af52166c491d5017ba2da2edec68dfbf131bc107de47195c0f1767f6",
        "n=5 tp": "63d66c88ea285893d9473ab0eba31b47ba04862acb9136ff195d267b793d720b",
        "n=5 basic": "aa19c8667fa7720aba1e13216690d0d460d3268f86aa896586f6ed19dae79d14",
        "n=5 oscillatory": "e803bbf8d700b3ab09358cefefe81654784bae1e2deac86253b686e27d01e6ae",
        "n=5 itn-only": "5fe38ca48e1075d10aa84df143cf33619223e27706f87b781ca2a615ed448f9c",
        "n=6 tp": "9b181c1952a528ae3bd54c52f3d816c8ee6c01016af4550cc71bde3522359516",
        "n=6 basic": "9bce709e6aa1215b95a891dde7ed719e0d0c1a2a950b600f253ce484c82d69b9",
        "n=6 oscillatory": "1677e880570c5cc439abaa90d1882cf15ef97dd12a1a798714a79073c05a2005",
        "n=6 itn-only": "92a4eaccc162037c8ad9e983bbe80c6793a26a952c9941e96d837ba26b2030aa",
        "n=7 tp": "949456a462e651e6add2b76bdca0e9391abde6729216962af9d8d0a28a888185",
        "n=7 basic": "81ae6ddedf80449bcff9c29e56a31e18c2ee815301dce38e3fc4a2a34fdc9b44",
        "n=7 oscillatory": "606428c569c9c5bcd9bc08c656ac390484a714f0f111c3d8c83bf8b97bae8d22",
        "n=7 itn-only": "197415869961b0b067eb9f1ef7c0be5676489462251454c5500d7fa75cd4d058",
        "n=8 tp": "f3da79fa788331b5e5284e1dd639f50632817a1fe9b52184914674259167de7f",
        "n=8 basic": "3beaf0b91295770ecc45e16e164e88753e6d8bc204c05cd20850f4b701c6f503",
        "n=8 oscillatory": "ee7355ef31e9834940f33a9c552a379a7e891002fbfbbeb09134e1d44e3af652",
        "n=8 itn-only": "bb2afb27f1c074a9df61680250d89d2c7655d74c19a891d908082d580853e144",
        "n=9 tp": "466781ec89a22620542aa5c74169910f633ee3f0e16cd6ec00be50ecc98354bd",
        "n=9 basic": "dacf2aa49032684d3c2df81e38b29516cbb1d93e26bf302c29ddaeb964938f71",
        "n=9 oscillatory": "e4a68fc09eba33ccc7a1207c41aba7250ec1f918ea2e99f53fe5efba41a4721b",
        "n=9 itn-only": "0dffa85a2447b87952481b1ec881b6e091c29293effe1d461e65cad97e85a5b3",
        "n=10 tp": "1b6e3859e53ec33c6c0daa3b4b53bb34afbeeebc67d61d648091e2d83794a9e3",
        "n=10 basic": "fff456ae6bc41cfb6a561008c5843397cad57c524e949a42e035c3d6ef954a76",
        "n=10 oscillatory": "996c5a069fedda29d512c20ae91d357502b731c3ee99a9af98f9cdfa90988091",
        "n=10 itn-only": "9a9caf6f02497f85040ece02e8260b1123142a4ad0afdcfadc63f1106ac905e1",
    },
    "classify": {
        "elim3": "581d1b438807fcebee76731cd3c3ddc8d724d4c38bc86d1ca2d90485f2b59fa9",
        "basic4": "34fd9698a8a563e33f809f32d0ff1f89bf00e00a3e73771765e5492ce22e63df",
        "net4": "b689ab6d1c94da53f1a6f284909161c1428ec02f2fdd676753f86a274b59d38c",
        "exp4": "da8a942ce698b39593346241061f3348a089f4f8baab6b1610878e52ba7780c4",
        "exp5": "d77735436272c7ca3704ee5dcc03fcbbf56a8d1ab503b3c70848bd9fe1545964",
        "pair_a": "45061fde11993ae8738b2b138b8458ab1f32e8042454f745b37d2aba3994ab35",
        "pair_b": "45061fde11993ae8738b2b138b8458ab1f32e8042454f745b37d2aba3994ab35",
        "early_a": "da8a942ce698b39593346241061f3348a089f4f8baab6b1610878e52ba7780c4",
        "early_b": "b08e7997656435ab4d418754050951c61da0e80f62297189ed7b5de54645d5ac",
        "bound3": "d66c267b7525cd7befc187c0191f177d59498267c593b3ce97dd2a8b563c5f62",
        "n=2 tp": "97713e749cb6dec50ee1fef28a31778161d54e984df6c0da22dee035e93918ca",
        "n=2 basic": "97713e749cb6dec50ee1fef28a31778161d54e984df6c0da22dee035e93918ca",
        "n=2 oscillatory": "97713e749cb6dec50ee1fef28a31778161d54e984df6c0da22dee035e93918ca",
        "n=2 itn-only": "e94ac1980fb7642b2254678a39011eaf1013edcf27846dcab06aaf45eb320468",
        "n=3 tp": "581d1b438807fcebee76731cd3c3ddc8d724d4c38bc86d1ca2d90485f2b59fa9",
        "n=3 basic": "2d115e7c35a9164762980207bee356a2930a5059cf68a8de11bf9291f58f50d8",
        "n=3 oscillatory": "f02032fd69623dabb45b2c00f4cd15ae6cae1b29caeb3441e89fec1d7812ebe8",
        "n=3 itn-only": "597fe76020dba7d3e1870227d4cbc515d89810b2e8dc86872507e5f98889838e",
        "n=4 tp": "a919347314840b7ef5e0c40f8fb8e8107c970e403c56d065c35271c1e80bcb7b",
        "n=4 basic": "d8f2da9590a54480a14786984c0dfa364af26340ecf024a559bb99b657ccbde0",
        "n=4 oscillatory": "34fd9698a8a563e33f809f32d0ff1f89bf00e00a3e73771765e5492ce22e63df",
        "n=4 itn-only": "7d68f745f52904542ae94911fbf5fa2a8a416100f0bbbc763c06e1fca98ac277",
        "n=5 tp": "b91bf622e277fc31e1885c2787be2352d3ebbf37d58a3efb54799c85d5ac87d7",
        "n=5 basic": "dd2a803a7633e173f6a5fb3a78fbf92ddb160b90dccba5b0be04ae9f98622523",
        "n=5 oscillatory": "b36599e9b8005ae38161f254281509e5db4ef5dabfdfdd2fe1ef07f15e01c61b",
        "n=5 itn-only": "0dd799ed0f37fdc71e59667aa7ac9dd40baa4d90055be805316b5c5de88c953c",
        "n=6 tp": "7ceea51f1b491d1d5eb8305709ab6b7686e0c511e208d05518511dd77b9c6d3c",
        "n=6 basic": "81bfd8d19e0c0c21fc84433236327cb9cea48d88d6fc536f0a78aaa1ee8fffa3",
        "n=6 oscillatory": "d051ae87ae0f5510a0db9cceab51c76e41955fdd775b28f039f04ef81cfd533f",
        "n=6 itn-only": "6ca97260c2ed40a4b7deb0d6d8d1f002ed1712fc722e4841c405d938146d80ae",
        "n=7 tp": "95d3cb725239d8d99f31ba307faa71ff2786ea86bd22e31aa522af85cd68e71f",
        "n=7 basic": "fec18d1c396df16c7d7c0f04eb62e68f97680cbc7e10338324d4ea59ba41b3d5",
        "n=7 oscillatory": "c2f645e20bddf70226b9c0719fd41b133e8afb908ae12aa9738865680bd89d61",
        "n=7 itn-only": "27e1befbfc14ade37e6fe987ff00708bb22971aa1e26a6c67b8aa51a0823167b",
        "n=8 tp": "68a7a69b82de2f9c6b42f74f86700969b5a530fbaa5caf85946955cb9542294e",
        "n=8 basic": "9088e8a25ebcba33107c498419d326d8060e3fee60bc83161fbeec07dae6d4d0",
        "n=8 oscillatory": "f2ba54cc3392c236326f4bb9e01faf775c9921a19ffb093590d2bb90bfdda3a1",
        "n=8 itn-only": "639047c209adf464a6e8505342a5438292802f992798a002bdebe80d331c6bc2",
        "n=9 tp": "470d9852fc36d064638af9823db09d3add463eb3a6508d1075b816d55cbf84ed",
        "n=9 basic": "e6ee4c2b7b35e107ec5bd5c8af1c2420838e3f7fc62497902fde6f859d792bda",
        "n=9 oscillatory": "45908238e9614316c073234a182a205e0ddbfc85a5595bf6a4528a6df6eadafc",
        "n=9 itn-only": "be45401979ca4c34eafb4ef50e4248d4b352e937f03cbb234d767b62a2d0d269",
        "n=10 tp": "423f8e2c63fd36c9f4e7d44551b964a8cc7d15a14137ad75c8ebce75d8760ad1",
        "n=10 basic": "13d5e113f2af592575e397db719a9e6e77d2bbda539426a287dc25e882dafffa",
        "n=10 oscillatory": "8a0feee5fa723fbbf21e92a56edd45eeb0372d26fa2455def494c6666ae93482",
        "n=10 itn-only": "d9c2b14c9c571b472ef127d5e5dc42d32589d3cd5ef0d78cb322d41f61b4a1cc",
    },
}


@pytest.mark.parametrize("run", sorted(MATRIX_RUNS))
def test_matrix_command_digests(tmp_path, capsys, run):
    got = {
        name: run_digest(
            tmp_path, capsys, "input.json", dumps_matrix(a), MATRIX_RUNS[run]
        )
        for name, a in matrix_inputs()
    }
    assert got == MATRIX_DIGESTS[run]


REFUSED_INPUTS = {
    "itn-only identity": "1,0,0\n0,1,0\n0,0,1\n",
    "itn-only z1": dumps_matrix(compose(generate_z1(4, 3, seed=5))),
    "non-tn": "1,2\n3,1\n",
    "1x1": "2\n",
    "2x3": "1,2,3\n4,5,6\n",
}

# recorded alongside MATRIX_DIGESTS
REFUSED_DIGESTS = {
    "brute": {
        "itn-only identity": "7fca8a06d09e66b3eb9cd027eb14eb9082a44db5684fca8b724783e20fe5bc21",
        "itn-only z1": "7fca8a06d09e66b3eb9cd027eb14eb9082a44db5684fca8b724783e20fe5bc21",
        "non-tn": "7fca8a06d09e66b3eb9cd027eb14eb9082a44db5684fca8b724783e20fe5bc21",
        "1x1": "07702772a014e44f08f53eaaba5a9e7866321733c9e3bd82a62d3a57b8188358",
        "2x3": "a00a884e33be66295385741774fe7a297ff590774b14f9c00c011e99be050790",
    },
    "theorem": {
        "itn-only identity": "6cc87f70501159f12adf6da3733481f52e0c1a7d4b061c6062dbd7d5a47ed35b",
        "itn-only z1": "6cc87f70501159f12adf6da3733481f52e0c1a7d4b061c6062dbd7d5a47ed35b",
        "non-tn": "6c3b2a4f590ee8d41232b03bb0b98dc0ba177877ecbf4dc5a15319baebcceea2",
        "1x1": "ffe36867adf19ee22267b46bcd237e64f39a821e037dd337f5e73ecb7fb68051",
        "2x3": "e64401ef3e8c3670804c43f7dbe96937d539ad4f0344b25e55bcd9480e4637da",
    },
    "predict": {
        "itn-only identity": "7fca8a06d09e66b3eb9cd027eb14eb9082a44db5684fca8b724783e20fe5bc21",
        "itn-only z1": "7fca8a06d09e66b3eb9cd027eb14eb9082a44db5684fca8b724783e20fe5bc21",
        "non-tn": "7fca8a06d09e66b3eb9cd027eb14eb9082a44db5684fca8b724783e20fe5bc21",
        "1x1": "07702772a014e44f08f53eaaba5a9e7866321733c9e3bd82a62d3a57b8188358",
        "2x3": "a00a884e33be66295385741774fe7a297ff590774b14f9c00c011e99be050790",
    },
}


@pytest.mark.parametrize("method", ["brute", "theorem", "predict"])
def test_exponent_refusal_digests(tmp_path, capsys, method):
    got = {
        name: run_digest(
            tmp_path, capsys, "input.txt", body, ["exponent", "--method", method]
        )
        for name, body in REFUSED_INPUTS.items()
    }
    assert got == REFUSED_DIGESTS[method]


def exponent_inputs():
    """(name, matrix) pairs: the corpus, then seeded inputs at n = 2..10:
    Z1 and Z2 shapes at s = 2, (n+2)//2 and n with the upper side the
    mirror of the lower one, a mixed pair, the middle shapes with one
    extra lower or two extra upper factors, and random oscillatory
    supports at four densities."""
    out = list(corpus_matrices().items())
    for n in range(2, 11):
        rng = random.Random(2000 + n)
        layout = chain_layout(n)
        d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
        mid = (n + 2) // 2
        parts = {}
        for s in sorted({2, mid, n}):
            parts[f"z1-{s}"] = generate_z1(n, s, rng.randrange(1000))
            parts[f"z2-{s}"] = generate_z2(n, s, "random", rng.randrange(1000))
        shapes = {
            name: SEBFactorization(n, p.l, d, layout.mirror(p.l))
            for name, p in parts.items()
        }
        upper = layout.mirror(parts[f"z2-{n}"].l)
        shapes["mixed"] = SEBFactorization(n, parts["z1-2"].l, d, upper)
        for name in (f"z1-{mid}", f"z2-{mid}"):
            pure = parts[name].l
            zeros = [p for p, x in enumerate(pure) if x == 0]
            for count, side in ((1, "lower"), (2, "upper")):
                if len(zeros) < count:
                    continue
                extra = list(pure)
                for p in rng.sample(zeros, count):
                    extra[p] = Fraction(rng.randint(1, 9))
                l, u = (extra, pure) if side == "lower" else (pure, extra)
                f = SEBFactorization(n, l, d, layout.mirror(u))
                shapes[f"{name} +{count} {side}"] = f
        for density in (0.1, 0.3, 0.55, 1):
            shapes[f"density {density}"] = random_oscillatory_factorization(
                n, rng, density
            )
        out.extend((f"n={n} {name}", compose(f)) for name, f in shapes.items())
    return out


# exit code, stdout and stderr of each run, recorded while each exponent
# route assembled its own report; brute refuses n = 9, 10 (exit 3)
EXPONENT_DIGESTS = {
    "brute": {
        "elim3": "6e499128fe68ae6eb2bb60c9023bd3e3314874c39fc08a9bd87e71a777f99592",
        "basic4": "c6e820f759a6c8bbb7e736ffa2484cfdb42bf6db8bfad6e8ebe8d24850870f19",
        "net4": "2ca68c6b6d787ca818cbdd0f9aed11279e08cdeafe67a66eee650f8cb2bd8b61",
        "exp4": "0df20e6f9481e2dd2208b5a0134f2b2f06c09567ab0142d2e5ecb4a1cea4a494",
        "exp5": "6a63719c0f9d5c252992fabae6cc6fdfde7d509e294d09dec396f8dc58a184cd",
        "pair_a": "c4562af7a57603c00c5e703e9c96ef9da2fdc759e991e9bd3fc8852443bb3a1f",
        "pair_b": "b257207227dd1efcb8302e41ac25eb1e54e764f58b41cb7eaf8c4b340a6cd4de",
        "early_a": "7739e1a4cf4792f28005b66f45699a53df58c6a191aef392258f0e189fec64e7",
        "early_b": "ec64faaa25f9b134a6c18f263ffb6370cb533a55fa7565c23ff2d3348f750c3a",
        "bound3": "679ece1d52d9791d0a4289394e810526d374fea4837a382cd4f9bcb03d4aaaf6",
        "n=2 z1-2": "87cfa418a6bdd1e523681beea877ad8c99e634e7347812ae70e015dc1f5a81c6",
        "n=2 z2-2": "0c2576e0c63b292deb198cc2095938ad2431d926e46d9047c92950cd2b9753d5",
        "n=2 mixed": "e7d07793efe858965a7f0ea97166e4ea7665f11c428973114c9c89f5cb49ddd3",
        "n=2 density 0.1": "bf0fa6ce951ba5eb11e9d9c1256f6444257e8a6d41b973fe3a4391513599c405",
        "n=2 density 0.3": "8784256cfc696e1d9dde6f9534e348195322dc0181354a4b8c7a0236773c6f02",
        "n=2 density 0.55": "647efe35487cb70502f5e762f500d56bdc78a119147e336c3c7d04ad70b50be8",
        "n=2 density 1": "5bdc92b2cb4b72e8925e52492d4e309c7769321c64ddd3b3c17a7eaea4fc2bbf",
        "n=3 z1-2": "ce6e798d77fee54c4f763686c6f9f7d54179336d76cffe8272611875b272ae28",
        "n=3 z2-2": "0fd5f37acc6cf6b6b6cdff412f7ab7380e364687b48f0ccd50e93884f38a451c",
        "n=3 z1-3": "805b22bcc9510e28b22173cc9a2a1192b0ea220a40369b9262784216e4de95d2",
        "n=3 z2-3": "d5f967791325bafd74c0fca09f860d095186210171be8590d80f546b21ea5e39",
        "n=3 mixed": "dc72a3a059beba4454123e73630a2b95a029d9854f11b117a9b0bb02a3bd0901",
        "n=3 z1-2 +1 lower": "b8446d06756a7e2d924d295cd8712c3e5065f2ff564ea38b7aad8ba9fb37ca12",
        "n=3 density 0.1": "b56f1f8d9b2449fd8d3e28cb27411d3ad6489aa02cb978239597c13a260954c7",
        "n=3 density 0.3": "0829c9b2c62844f56778d6d244c21684d17803c57412be525459c1ea5f233f78",
        "n=3 density 0.55": "01cabf5db05d25531fae7022429b8b923a13c9f365f109ad0e330377379176fc",
        "n=3 density 1": "d398518e74cfa23e4297739669e9d547d3650726c906b3e68aaefb4ecfca08d2",
        "n=4 z1-2": "156cad0408c27e22a0b2d38c918f7f31192b8d0eb359f287f422c2cab15c4492",
        "n=4 z2-2": "f546c7606ed5910eee785c4bcfa67218198a82f20655fd1a7d08d608444c4977",
        "n=4 z1-3": "be95c389af9c91e167ff8f49d832265a9dce1441dce737892356d5923f33746c",
        "n=4 z2-3": "426da4ae3a7e553e3403e2e242749ff9a700fee3f383c54942764d88a62a5a09",
        "n=4 z1-4": "5bb072761561de2ada70413328f93a372941ab822a4dac25097af5f03fba8f4f",
        "n=4 z2-4": "b204cbd4f82d3236b591f8ba95b58663302ff83c45018e006cf884dc0c050f9b",
        "n=4 mixed": "8d6e9254efaa23f1f9b2875fbf04fb11f3e59570e81b3191d8ee5195610bce30",
        "n=4 z1-3 +1 lower": "5d2ad04495a45cb4fc5596778b654538ad6ce387fedcf9dbf02f5c1496087e56",
        "n=4 z2-3 +1 lower": "ffb555f02dff8226427ea2f8047d8f45c4e5446815ebc87ed9e679a9386d1af0",
        "n=4 density 0.1": "b8a561e74a70e9550bbfbf81ab306585e50a1099b340bca42ecdaa788e9bcd8d",
        "n=4 density 0.3": "7f11959f774ded000a44bf25363acb81c83f29e6a5ab6e5497c13f6d191d5c38",
        "n=4 density 0.55": "4cea8eb8727ac640d9e6cebafd32732fa820f5065f860e8d7e06f2db1165f828",
        "n=4 density 1": "005b8845ab7eab4eff928c139d90f9b4a78d8a5d942be8fefd7669db684a06bb",
        "n=5 z1-2": "6e1bc49053e1afadd35748777e17dc3296bfb0c997fdd3d20d110fbd6b8d30c8",
        "n=5 z2-2": "0ed336e7f315668cdff5a91012b76d2773885357b5b2960929832de7a99570b0",
        "n=5 z1-3": "0b19588cb875751221a32d1b15776c252bd7a049499c41fb0ea53214bec3c0ec",
        "n=5 z2-3": "88b22fda1c297da3bdd49ded90e66a2454b166f093a490edd7723c651d3b6e1b",
        "n=5 z1-5": "0ced1cd22f96fa516a0990abb91adf8bd9659095b23f22d9139045986b89fb03",
        "n=5 z2-5": "a214aa237e8a64c8d77f1b4e7e09ddc6068b212d34c7eb9ecaa94bd12b22bd88",
        "n=5 mixed": "c9711b5a845c31c3949c07855d2f0ccdac087afe35d585952b8d0654a2369259",
        "n=5 z1-3 +1 lower": "a2da11807ff56b92390a21150ea52621092c4367c2f5146f9f2386afb7c78a32",
        "n=5 z1-3 +2 upper": "70230ad374f4aee3e3a7641fbb557b5339227445e23ffb135ee9976f34894bfd",
        "n=5 z2-3 +1 lower": "4054c76be84a0ce558279f5b289cb2595091a0c76aec559c1882c8b4aaf8915b",
        "n=5 density 0.1": "67b44eef1c262c4d790a55f910be1084883228f413670bf258d716f34c222590",
        "n=5 density 0.3": "27ad278178229033d722380ebb5b3f5d0b5e071030fd69eafdd81aebf10c39c5",
        "n=5 density 0.55": "d0be5c6dd56492c6f5bef53eaf708b4f6d8eb318f8481c66214fda21effc9851",
        "n=5 density 1": "63c4d08ad0cd76af85b3380b4bfc03e7ca149a483a67b60d569f9d5be5fab0d0",
        "n=6 z1-2": "ce00d8e6513b0fefd71997c498c1268ac09c9fad64bab1102339626c5d28deda",
        "n=6 z2-2": "7c1a4ad1db56d62c0c95c3a8244213670199fbe8510809cecd31e61ff817e9d8",
        "n=6 z1-4": "39b260b3aa2576f2a33eaa9e0a39462096e0adad588d2b0a1af843ce901e875c",
        "n=6 z2-4": "c561d6b4a5f9fd490cefcf0a3452938632a29dfe6539c82593aa547cbf6a3e2b",
        "n=6 z1-6": "e57f0e6e4569dc514bde184ed2991a841023e4879378498ee2dd951b7749c990",
        "n=6 z2-6": "b38035e2b198d838feb3cfe9eddce48e95add7f80cf1065adcebece065b04f46",
        "n=6 mixed": "1716736af792ef62a490ae1b5b3dab7e9326d66ee596bb557f2b73d0d35daeab",
        "n=6 z1-4 +1 lower": "e641524d7d98f376fac2c529c390770318bcf308c14f7603bc92d14a80ce156e",
        "n=6 z1-4 +2 upper": "9ca7af2a1fd91a75271e07878f12dbd8fbf545ea62130e28105a1671572ef94c",
        "n=6 z2-4 +1 lower": "75dcbd01c504eb3a373967f9854eb8e20fad7eea3ea8c29615e2c42839fff403",
        "n=6 z2-4 +2 upper": "676fdc51614cfa51317e5efc1452034f8b65073130e3fe973159c84f09c6abee",
        "n=6 density 0.1": "2a9d0c7037865b776534dfc0b1c6cd88c1d9adaab7ca43829614d53d6572307a",
        "n=6 density 0.3": "3359c40115adb9808d313e9c1ac7d47104e0c385e4ec7064dd9c4ef30db463f2",
        "n=6 density 0.55": "1de8885281b8db72fb63dd8832a04e8ff0387d94013885836273e18b1f4e9318",
        "n=6 density 1": "9d88fb75f9d3e8bc5d95d41caa78c549250658c04373484835e02b7d4e280427",
        "n=7 z1-2": "e0ca2f58ca5411397bb292b55adf8ef3b3df515b1e1baa1c85fd10f8cd935918",
        "n=7 z2-2": "c9008971d0c7a982744536a7919d4bf90b1db89e2792a3bb035a5414450b42d4",
        "n=7 z1-4": "519a5a7321dcffc8ce81c8de083b1b43e1fcc832323800f0ef6235a7002112dc",
        "n=7 z2-4": "1c5a371b7a4ea62573fa2bdc61c3b2852f4f7d7f885e2007b86910bb6f7c63e9",
        "n=7 z1-7": "594ce81376872d2e82afc2487408e368f996815e0e8346b8102dafec0ef4fd47",
        "n=7 z2-7": "452fc2d6a5208d9545f5897cf26984f041456bdcc2e9e1534af6c723809f43de",
        "n=7 mixed": "737f3922265e678368f92ddc67f7b11d76155ff860a02bb92254fb67e6fef5e8",
        "n=7 z1-4 +1 lower": "6cecdfe3b0347dc2a9e483c1d92b019a2c424ad19fc8c765a6d62c60e1178735",
        "n=7 z1-4 +2 upper": "29b4b7da956f1de79f084cbf0818331a9cc254848eae0a96f158d83174ca45e7",
        "n=7 z2-4 +1 lower": "ec8decbd23b021776240d8ec7af0895f539dd600e1ca38c5e053ac8b4ea087c0",
        "n=7 z2-4 +2 upper": "c4f9d107a9586f2875b2e613911f15eeba450160dc8b970be6fb76d5c307bd3b",
        "n=7 density 0.1": "5e2092ac2864854a7bc20eace5e6728f276d9a40c8862efb6059a542211e1a34",
        "n=7 density 0.3": "761f46e148471d1163c564375fd7a3d9829209da257945df430a6b270abf2713",
        "n=7 density 0.55": "fdfa81bb63c6764f014f28feeedcc8e73ca9a2840efce795953b6e5d898c397c",
        "n=7 density 1": "3e5abb05d238e0499c1f299f28db37543f34bf36ea31f5b474254641d9485fd6",
        "n=8 z1-2": "a1aad43720d2e12f6268d259539fd9637d402ae59a0791492aa90cea7c2bfa5d",
        "n=8 z2-2": "338b0431fd32df9b3e86925d87c49c866ec1c088eef886cff33406d41b5a3317",
        "n=8 z1-5": "33844f74f6b7b52cae56d9ce0a06646c2a4e43fca6a4ffdface49375d37c2f13",
        "n=8 z2-5": "c5d2a5b6f8af3e69a45c34d06b6bef96a22490d69d0e6e943c1e801313ccafe3",
        "n=8 z1-8": "30ad2826740e46d84c4c02eb3e9731bc766a5a83db972b1cd985edecafad27db",
        "n=8 z2-8": "fe29a4dc7fdfdf584abcc09793c53543145614611dd0a1f7c575872d5a8c08e4",
        "n=8 mixed": "df0d2bfde45109e3d7ae2736693dd8efbc52590acec684c7450f61ecdd062e3f",
        "n=8 z1-5 +1 lower": "597f4df9294ba9f882b8c6c425b7df72dad216d0bf41806a335f1587be5eeb57",
        "n=8 z1-5 +2 upper": "34c5c33a52dd99177d50bac39e0ffaeb3a0f727b2a3573cb746c387792a2f67d",
        "n=8 z2-5 +1 lower": "0c580a65b0dae187ce62c0e077d588f947968bff3f253a26cd5ea837379606e9",
        "n=8 z2-5 +2 upper": "ba7273bb486995b00653a1e746feffb49dda347a047b3b78e873fc1ffb88660b",
        "n=8 density 0.1": "3638806f0e87990dc2db7f12f67cf4622082abfd9443191a30f5cee44b9aeb58",
        "n=8 density 0.3": "baae3b768247af4abaa2447623af09d756ee0eeba72b499acbbae48c01f4534f",
        "n=8 density 0.55": "ca9fded3f00bc93a437103c0747743c6c746cbfbc427bbbf0fdfae6a4d49bb37",
        "n=8 density 1": "257501c035ff65dd8e1f0a37922088f091b2ee6b7eb8808c7d14267d63ca3376",
        "n=9 z1-2": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z2-2": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z1-5": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z2-5": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z1-9": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z2-9": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 mixed": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z1-5 +1 lower": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z1-5 +2 upper": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z2-5 +1 lower": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 z2-5 +2 upper": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 density 0.1": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 density 0.3": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 density 0.55": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 density 1": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=10 z1-2": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z2-2": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z1-6": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z2-6": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z1-10": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z2-10": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 mixed": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z1-6 +1 lower": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z1-6 +2 upper": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z2-6 +1 lower": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 z2-6 +2 upper": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 density 0.1": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 density 0.3": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 density 0.55": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 density 1": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
    },
    "theorem": {
        "elim3": "3a981ced9381ea0ea9d9356942bbb2702279f70cebb68a21be83b9a76c60e3db",
        "basic4": "1ab35ae259482eee42448965da25e66e180de7337887ee5a0b007fceee58cb68",
        "net4": "1b434c0a807548425b7101e7a1acd3887fe8fcd3daa9f7e870d2794bee487c1d",
        "exp4": "3226e84e12d00fc1ad7167036531ed3b4d2d86ed30666d2778e31a49e74aa502",
        "exp5": "8d0847cb70e189b55e2b14941580255f9f6812b2ebe32c8f8fd440e9f575957e",
        "pair_a": "88fde48c9f3175b6f4518a7a80c6cd09d6747a5ec18fd1f4f508ff085df641be",
        "pair_b": "494ff3dd08c80a5069849bc6aa02d8d7d9dac2f77054ebea8c01d7416973da0e",
        "early_a": "ba71a8c83f227b18fe131728dd4791294291937688e10846c3a4597aa0a6a650",
        "early_b": "f5c0b3e5311ee3260aea831aaceedf710669c3f291cb8ae79815d7eac0f73263",
        "bound3": "095c1a6e85fbc3370720b8f24cdf8f26c7a2c9a76182969ab3b7f2748e311a5b",
        "n=2 z1-2": "02c0cfb4376e5cae9ac8142ad425cf15b9ccc4c0a43959704b7a48e28a40a13e",
        "n=2 z2-2": "8a36a67d4d237d67abfe0ea5ed7a11bde2ad0de5fb4598e68b1871c1f6aace2a",
        "n=2 mixed": "63fd66916591b66cc3af76628a3d49d34ff40e233503ec789ee781a7a2f4823e",
        "n=2 density 0.1": "e3c821224350efce2584033113ec95a7443b333499af1cbe06f92e2bf4f82c5c",
        "n=2 density 0.3": "f66794caade99c1539fb71aa9d71c19aa82e527158c43c0c4ad7927e0fa3305a",
        "n=2 density 0.55": "1d4e83b6de76c628dccff588014edfe98f14111aa53fefa39fef761a77eae2bb",
        "n=2 density 1": "0923314715f4e455c9385b08d19a10cf0e111cda09aac52173122be4d355adc3",
        "n=3 z1-2": "8811da18ad446ddd7a19c3d7a311995ff07ecf4a4a410eea1b7bddd09285baa9",
        "n=3 z2-2": "91624f69ea6e27a9b95103c49d8c2245c26f0696266a4e4c6e063fb15a0e8595",
        "n=3 z1-3": "f7bebb50b8e8ab1a04730aab48e7c42deba8c4c71b8daf4418304a9753e7c50c",
        "n=3 z2-3": "f1e1c537cbfa91295e4b0ff9cc216f233fd1846d4228950b103323fbf38150b2",
        "n=3 mixed": "9c8fa81f0fb7dc3e602f85ea3338c68249644afa526267ce4872fbeb292ce32b",
        "n=3 z1-2 +1 lower": "896a8c7a0169bae35622e2d9071bc77490a3010e91dff2faaec57df3b11b0a08",
        "n=3 density 0.1": "06a437450a206c0b18d8119fad0a5bab7d393e34d34a553218ce05a95255e138",
        "n=3 density 0.3": "b321d1f29f8c56856c0265ba8ed28664c30f150c5cf8eac369e433c2764b8078",
        "n=3 density 0.55": "324f2f61a9e26d3863ec705f770a6d86cce252abe504df96041bd5e0bc5b8408",
        "n=3 density 1": "e03b956f35e98f01f2f2a85774e5741f37cbc66b61f26b5d2e836d8b8cde821e",
        "n=4 z1-2": "815d211bcbffdab8639b6364e5333d9efba9c0c3cd1f292d4d46412028de13e1",
        "n=4 z2-2": "e12f48eee02f51efa80aa26aed2e0968335a7da004d01dee89a867fcae9b8e37",
        "n=4 z1-3": "9d53acd783cdbb7cca3e41dc4796634224b55be377aaf979c090ce3c274cf12a",
        "n=4 z2-3": "0028fd36aae0bdc8c5d4d8170272a66a6e2b6f1dcd925974fab3fb567bc88d4d",
        "n=4 z1-4": "8b5e63ac890f5477029f7c82e83152da6632b9a9a451c0d74074000624261e35",
        "n=4 z2-4": "d8526347b5b4d9c155edf05dcce253475136e8e94ca6c3e44be07e5392b252eb",
        "n=4 mixed": "e981ed6e54b5e8c78ea82c30189d3d4e5d331f37dc59124acd4bc194709f054d",
        "n=4 z1-3 +1 lower": "887b1659d0901c74508b1afc45efccdbd2ba45a12eb1ac58bc62ee0e986a3381",
        "n=4 z2-3 +1 lower": "8b09cf842e405dec3659951ac5c2171640f4186a852d85e97d71db16fab4a4c9",
        "n=4 density 0.1": "5036f46f916cf370a4fc26efa03cf2fbecbc88d2cc21a5d55163191a154f5f0d",
        "n=4 density 0.3": "109ceabe19bcc22f195bcc5a884c36e86bc6f08d0cada7243afb284d9d0586e5",
        "n=4 density 0.55": "f29645c2aa832abcc371732b2f41ebe846d98c42acd90cdad415dca4879d67b9",
        "n=4 density 1": "3175756f8594540ed59216aa2535c156856f3e7097a038df460b4be7c6535de5",
        "n=5 z1-2": "2e34221672573fbedd64084f9caefeeb3fdb98b0d908b921514241373ea3555d",
        "n=5 z2-2": "620d26a3b4044343a851cfd2922498b0f0feba5b6ad8d6ce31119a2f7feb927e",
        "n=5 z1-3": "178a38bc2f9054e831604574a1be28cdd542e5d50c44132cc18929b4b307de0c",
        "n=5 z2-3": "8709b4752902fbdada9005ec4cc6a6dbe49d9d4b8477be9107953095c793f66f",
        "n=5 z1-5": "08afa11849f1d139fc88eaaaf3a8eddd2302826bbc8539f80bb677cc92a6aa17",
        "n=5 z2-5": "cf1f4c192a55a0971255db0dab8bf2f1ca931e3b128126a4e19caa5d59fbe30f",
        "n=5 mixed": "f1c14876a0ed89c261eb4935013ac80e8d5301c46aa3594e6006c3eb6923f5dc",
        "n=5 z1-3 +1 lower": "a0d00a69ca9b844641cfe0aca83692c77e9fbf533a58a6bd5eab6d3836e42d06",
        "n=5 z1-3 +2 upper": "c838b6ba06090ff1790e12747c57bfb0590d2023f445d2c404bd742b38fc4f45",
        "n=5 z2-3 +1 lower": "cceca3311f77e1166055d4756bb1c7385d4feac5b41d5bdfd8bb3ab64d24a846",
        "n=5 density 0.1": "25e89fcd2a757013f9647fd6dd34a337fdcb9392de979bc1b54a9308fd9b9294",
        "n=5 density 0.3": "5c9a297260743dce73c83af51d73d68a19034b372bdce117190cc8a9b7d461f7",
        "n=5 density 0.55": "7b8c4eae7f3f25248f8b9c7d0b15a46f2fed970c9055171ee6447292a368be28",
        "n=5 density 1": "fa2de973a3b806c8f0a24436d89507ceb3ba3381b7a90fa03a2f8052f88dd985",
        "n=6 z1-2": "dab9edd347e4057979637dcf1938a64014a51356f9595881db18b42a80535a9d",
        "n=6 z2-2": "a00650ed7c3cace93bf97741720a14ebad290ba5b2c8a451e12da95a4e7b7155",
        "n=6 z1-4": "baef753578cd38d41df3b1972008c9759528a22b20c3077094d9707dad4f10fe",
        "n=6 z2-4": "eb3e85d624f5e7a1834795b66bd16754fb861d60f34ae2f6873ba6d7b3d9104d",
        "n=6 z1-6": "3c5f0fbb2ca0038ffb4303052302674943287832466438ecc752541fd2ed6aff",
        "n=6 z2-6": "b3b7fd9d9b4ff22c055548ff03ae7b69570e06c61a4d6cac35f415d850253cbd",
        "n=6 mixed": "16cd6d083fe16b20f5491702b5b65727bcf7d607cec8b2e55c7bb410d4d8c1ca",
        "n=6 z1-4 +1 lower": "e02e5d4aff66b97eb54e6400703e566455900794f274bdbfbbd8046618fad389",
        "n=6 z1-4 +2 upper": "a773925260ed14527d6a79a590e561f4ef419dae850d858d9bd4233727cdea88",
        "n=6 z2-4 +1 lower": "0cea9131c686932d810afc1d9f8cba2f610740cd02f506d7debe4aea13f6cb96",
        "n=6 z2-4 +2 upper": "7666f1cd5fbed12c76d5e699b03aa5f395003b34ab7737000154f70c48fb8590",
        "n=6 density 0.1": "d52353e58cc8b32e0ab33175fb4b8a9a9275906b483fd7907efcb2f6764402d7",
        "n=6 density 0.3": "e337a645d5b64348f1d0f4acae4e0fc634d813ee73f05048a267f39e051c405b",
        "n=6 density 0.55": "b4f819446b76f9a205b58c03dd2d241fc45c81c0958ed6e12314155523a1c005",
        "n=6 density 1": "ef6a295b56d8a3633a7f1f3bba079cbb874b435b9c31dfcd1f2bcf245f46e109",
        "n=7 z1-2": "3f6130069836fdc8923446ea43e70592bf2f1e8732a47021ad17544dea435556",
        "n=7 z2-2": "fd48dd6c44d2c9678b8c1cfea22271a51258cb62987ec3c3edb8432f3e1e5523",
        "n=7 z1-4": "52537a7bfdfa609397ff71e4b52c2aabd7b7f7b70132d64a3b68c81460095dc8",
        "n=7 z2-4": "287a261f8209a2c1654c0f82c62e3cb10ecdbd63837f64ee9df040298d0d2006",
        "n=7 z1-7": "555bb68e668b8f37de24d913e640f4d346b7889e19f74c7a59f67d3e73526aba",
        "n=7 z2-7": "36efe07917860f4eb703b44ac6e01283e057e73f90fe2d1e66df271a351015f1",
        "n=7 mixed": "ee2d24cfb3436c160983dd44efb3845c2f2fbff67ab1dbd216096d07c75fed26",
        "n=7 z1-4 +1 lower": "ee623958804b00584091a29c0a65eeca6e09aeed2d2865386d63e951d7715949",
        "n=7 z1-4 +2 upper": "8c8c9fe27ca03236f7799e84b9ecf4316edfa3bdc46174a8c4dcda5e4779a095",
        "n=7 z2-4 +1 lower": "9cb1e13a8b1e23b0704da8c639532f963c4f05ae660aa448e5c05da6267aaf6c",
        "n=7 z2-4 +2 upper": "6576bafeeb96f30197e6541f41db27582c89a0081c4f589be6dbf71071d82a4a",
        "n=7 density 0.1": "fc5c786bfab3ce9b4b307816607a081bf1ef664eb121bcb87e0d5ce406f9880b",
        "n=7 density 0.3": "9d5325255f33aada62717072fb02b322ca2694098673aea65739e9d1f50a7fbc",
        "n=7 density 0.55": "c30446816feaee24d402f365e29f8e79ae47f9b896569e31651444a3d563f949",
        "n=7 density 1": "86c589af706d2d694ecfb7e9a4b0d6e8a1e449b22c97c25bea8016c6bb771460",
        "n=8 z1-2": "34739798662b50a8fc5375d990b936ae8ae09253928e2f38d2e73809328cf8bc",
        "n=8 z2-2": "fa6bfb0b3d1d6e24a1c84fb5a59341c5df1bfc613329ffd3031718566eb4ad3c",
        "n=8 z1-5": "437b670b1cfef27e5fa996acb13b913cd6e2ab5c2e7a23ca90d726122c47c1cc",
        "n=8 z2-5": "722847c108fa9d265bfe00a82bc53f48be2e1a4078cfe89a86b2ee2a71bb642b",
        "n=8 z1-8": "9531acbad2edeb5a050391101d81df0b5bdc4dd3b1ffb8822aa11f4d137d16ab",
        "n=8 z2-8": "521f1d6e63f9cb9a6329b6b3484a866f01f6b765d09a9f6dcf35ee41238c5fc9",
        "n=8 mixed": "0493fb9599afa0365d78f86ef60f5b22dfaa05a11eece98f7727b85d0a42070c",
        "n=8 z1-5 +1 lower": "368b277dfb760c4fb20c80b2b690885251bfff1b9bc87a047b60eee91f35e40b",
        "n=8 z1-5 +2 upper": "10816ba5ea2ab64487c30d7606175e78fcccf26b95a1e4a8000a371875128664",
        "n=8 z2-5 +1 lower": "72fb669dd78078adafc7bc75b7525b622708c277ac68cdb0c9eeac97cf0e8cf6",
        "n=8 z2-5 +2 upper": "3c1554425b7806d136ab6cc0a7deadcd5692233f9d27ab0c259f2217e0bbce30",
        "n=8 density 0.1": "e3b60336000716056028c9b7c8f3fd90af11ce7096de1ba98411a37e0b7ca448",
        "n=8 density 0.3": "eaa31a8f529f57b58fdb2ab546e47a3a21432fb9999f5e9cfaba31b5d77db0f3",
        "n=8 density 0.55": "9334a0a77c5305d8405cce94865efdab9770631adf9fff151254192e6d8cdfe3",
        "n=8 density 1": "bb3e3f2af09ff07b0119f61630059fd216242792dcce6e82f063299d7d84bc7a",
        "n=9 z1-2": "3e90ef312df88da29bb277168b7c2a05d15a6f4824b793605fc3fdc11e2d8dec",
        "n=9 z2-2": "dbe8eb29811aebfd568e0e613bc7a363ed23d74f37351a13f7f2e8e7f4279a44",
        "n=9 z1-5": "d42f8a3e6d13459be4c7f96de89d93e737bbc36e29063eec6f978e12197c914e",
        "n=9 z2-5": "b96698f15fb3942092d5761f5a315edb6f2d6fd932fcd04e131d724505f4b228",
        "n=9 z1-9": "481e0b2b97ca894da6474a709b0344e34e1c0ecb69061cc7a09d6482779b30f4",
        "n=9 z2-9": "03a96c5d06611219798f9440d3d1396f324cb5947f1ef8c6fe1ba97505301425",
        "n=9 mixed": "ed82b44983d24113253310931ae8b0d1c0ab8de63335d175f71964fc046ad1d4",
        "n=9 z1-5 +1 lower": "101bae4b83b3244792b06426698d265c2ae1e5d40637985b9c517196572c988e",
        "n=9 z1-5 +2 upper": "ec5b3af31459a77c033c5d0efd2d339c4fd83ede872a090d32cdd486dfe447de",
        "n=9 z2-5 +1 lower": "c05f4db85b16d7ee576eeaef347b668f4d8fb85532c89675a8d9f5ce66d9134f",
        "n=9 z2-5 +2 upper": "48cac81844ebce5b9fff37fe47c512ea18d3e0c4ecf9c7e2b562031718f4f8d2",
        "n=9 density 0.1": "882059f2da73f2193d883631a3edbf5c801ffe6a5b0e65aa50ece3f6238b0196",
        "n=9 density 0.3": "e9c3d0a96e50b72d3d8b9082aa611043d3738eb187d7dc194e5decea05a2883a",
        "n=9 density 0.55": "233a843878d938d37a60c10126537a6b5f649fc0fa2ffa400b72a5cd3d530025",
        "n=9 density 1": "033cb1a8ac320bc3c7f3d363954acb98b61cace58d9f660a2698d4e6293883bf",
        "n=10 z1-2": "ac1e4d9f4c460d57a7742150a2d844bb74eb8d7c030b6295bb185471c699f4ff",
        "n=10 z2-2": "3a02821f1f968548b5c26393b1f5e35d4b4f5a25d21e94a0c2e13f7a6a95e742",
        "n=10 z1-6": "a54e6465ca82ce8f6b49dd41c553e5d8cd0ef97ed6b1bff7e20ac127bfc169e1",
        "n=10 z2-6": "9c1442c0c131bf26c8bbfabbbabfd416f931863fe57987193388a0e0dd6c7ab0",
        "n=10 z1-10": "193d789c9e7eb6ba6bdca2bf49590f9e4a2a67aa8d098e2044e8708b0232dd78",
        "n=10 z2-10": "31aa06b48e53b7f075707be0599f5cec15803e74a259fc57aff108b799d283c7",
        "n=10 mixed": "bf92eba95514bd50e30b61bc95d2c9b652884983650ef06282f1d82817a260cc",
        "n=10 z1-6 +1 lower": "2e1cc382c2d5ffc775af47496e4132964222e6c4e36977f24cf446defebe3dc3",
        "n=10 z1-6 +2 upper": "65c1eed976955b269103d6418736b53492e6a1a57869507cae161cfa5fc5a8e8",
        "n=10 z2-6 +1 lower": "4e9e98ff96b17753383cc7056e761872388b6335fe52f03161caa64bb210e786",
        "n=10 z2-6 +2 upper": "d459f81e5282d55396ac8ac13604f662d9b0005b110a1378a1d2d4e8d371b434",
        "n=10 density 0.1": "95b0af016f941e6f9c98d4c56e8ecdb95d4b0b811ebb0adbeb4a99bba0799006",
        "n=10 density 0.3": "3e4875bd7e05e4e68db0d4e3f8aa4b27bd67a8c6cab63b069a0d2987e3e147a3",
        "n=10 density 0.55": "81cb5801e2c30b661e23db1087205767946f442b478152484374c4e4882262fc",
        "n=10 density 1": "4b71f200ba770acfc6347c1901e1b508f28a81cf00a63a88b95debeba8412c06",
    },
    "predict": {
        "elim3": "7591f95b6b6d3369838a4128022d6a1edbd723de251858a40af3e01c81518f1b",
        "basic4": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "net4": "2b8ed1b2c58f2e51716bf944d5cfed567df13a63d1bbaf37f9be3ec3bd08768c",
        "exp4": "d569aecfa2d7301997f4fa5d74128fc472ff35b483102014adbfe922ea86846a",
        "exp5": "34df3c761dff329875b40427897425ffc704138260119452d948d40d1a053d8d",
        "pair_a": "7c559d6e1f92e439c983f15f2192c9d32323857159e1436cce0390fe7aa371fd",
        "pair_b": "5e48863732f41165d749f85d24bb9b1abf017366855507374087f9632d001d66",
        "early_a": "77acbdf410201379ece015183e720bf2c7aaefc5cfaeb3602bcc8b70d024956d",
        "early_b": "31d242967be38bbe5518de675497a5dcbbbcde36a73daea4e410093bb0dd7485",
        "bound3": "a4f01534915f320075bc9331b3e142c8d16ae4d611b9464b8fc8ff229d652b7e",
        "n=2 z1-2": "caaa3fd50b1c284ac3366cf456a837d7ea75250c9d9589e63f81d9d2f754e208",
        "n=2 z2-2": "caaa3fd50b1c284ac3366cf456a837d7ea75250c9d9589e63f81d9d2f754e208",
        "n=2 mixed": "caaa3fd50b1c284ac3366cf456a837d7ea75250c9d9589e63f81d9d2f754e208",
        "n=2 density 0.1": "caaa3fd50b1c284ac3366cf456a837d7ea75250c9d9589e63f81d9d2f754e208",
        "n=2 density 0.3": "caaa3fd50b1c284ac3366cf456a837d7ea75250c9d9589e63f81d9d2f754e208",
        "n=2 density 0.55": "caaa3fd50b1c284ac3366cf456a837d7ea75250c9d9589e63f81d9d2f754e208",
        "n=2 density 1": "caaa3fd50b1c284ac3366cf456a837d7ea75250c9d9589e63f81d9d2f754e208",
        "n=3 z1-2": "07a345f4b3a301b7e3bf490f1a949e41c468275a0d7a91fed17dc25db2f18b97",
        "n=3 z2-2": "c1c69d5c589ef4a800b28b7c56b87aa1f732647320a3f6d1a8ce019357657d5f",
        "n=3 z1-3": "357e4ff612e4f15bef6ce72c755f763a103c6bf8a152b3c2e443ced7d9d07e07",
        "n=3 z2-3": "660e9d7421ee4d1232098d94638b8675c3b743379352671b1f07e27f6a22d1d8",
        "n=3 mixed": "3fd3cf3289a1d5abe1d4e58def043b6cf2b3f572c9651880ef1781eb5665c88b",
        "n=3 z1-2 +1 lower": "6d4317d210e075f74c13694aa7421306d8e5540560e7a8dc0331295bcb9d8c7e",
        "n=3 density 0.1": "660e9d7421ee4d1232098d94638b8675c3b743379352671b1f07e27f6a22d1d8",
        "n=3 density 0.3": "e01f2351f931bbdd742c14ae70191098935f99466fc7a2e1dc642ee14fa98c4e",
        "n=3 density 0.55": "660e9d7421ee4d1232098d94638b8675c3b743379352671b1f07e27f6a22d1d8",
        "n=3 density 1": "c69bfdafb2c74d3241a7c28d66a3d2f77bf436f53ff13993253665b06904080e",
        "n=4 z1-2": "ef8c314dd17c0ba887821c228939e3a406174f65f00fbe8fdfb6480a8562f547",
        "n=4 z2-2": "40055debd52cecaec67d431b95ae5ae9f26159d22e599d07ed3bbb4a027adf73",
        "n=4 z1-3": "335885778888772dbe6c8832919356e4f3a0547d88ce165903d8e65140dfdf54",
        "n=4 z2-3": "cc689c5aaa5cca846f7712b8dda52d65a14557ad3b892f1fb18e5d5238f7caf8",
        "n=4 z1-4": "1aa3bb3d7a21e48bd5d20180279121e98502faad22006ad29ea4b204dcec1d0f",
        "n=4 z2-4": "be3b251c9c45963d4aae38c74b43da4cd63b9028f4561cef3274cf55d2722eb3",
        "n=4 mixed": "a85d821f2981f37d459aea58ed6e975f7ce96c312df690376a65d1db66153f24",
        "n=4 z1-3 +1 lower": "c1646cfe3d9611980b8970c582bd1e49c58f6edb500216fa6d6ed1c8fc09d7fd",
        "n=4 z2-3 +1 lower": "a7623c77b01893c352c311dc9e2abde9b30a011dcbe375f69f9237160d93b325",
        "n=4 density 0.1": "a85d821f2981f37d459aea58ed6e975f7ce96c312df690376a65d1db66153f24",
        "n=4 density 0.3": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=4 density 0.55": "e9d1d1d17c05c6a3c5c1564d5054cebff7ffa883b78e22383c85fcb26b7b850b",
        "n=4 density 1": "dfd6d5af8dcb5c6d52484cc199f77cb6e26c0522f61a15b92ae8fa0610dae1fe",
        "n=5 z1-2": "7c7d744aebccbbafb3521cd2a21641feca37c61d38a441beee162dbbfa6ee9fd",
        "n=5 z2-2": "a1d8314d000a264c5d47a4a02a872d819dbad04ada177eeed23f71033c28e14c",
        "n=5 z1-3": "b4fc2328a278e4b7c4f5461ecc027c6ac19203ed9f6b4fedca919af8c1e97652",
        "n=5 z2-3": "0a5612f5d21ca74b9e552a370cb58bc938734022d7d04e652ff5eeb739d8c2ee",
        "n=5 z1-5": "c3ed67d4f6f41d8e9cc5b06122b8f9ebf0ab1196340bd45eab962782c0568d71",
        "n=5 z2-5": "749e1bc58bdaa9086ed4d0f72f52d4367da09e15451ebb8f3ffd8979b81b6ce7",
        "n=5 mixed": "6c6109190c0839db15891c9e70ae997bf0ae1845615ff6f2cef10985e17a3a04",
        "n=5 z1-3 +1 lower": "4c792b80a200acbb4314678419b78cccd0efa18206aa1d24144924ca757b7a20",
        "n=5 z1-3 +2 upper": "169d946a99e9d3fe18bf6fb9b367c65df4e81a4f30ef2f842d627eff4479ef51",
        "n=5 z2-3 +1 lower": "510beb0b1790889805cd39f6b1cacefd51e4ef9e89d8400b2173afbedada6333",
        "n=5 density 0.1": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=5 density 0.3": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=5 density 0.55": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=5 density 1": "51a997f4776c8c97ca552d86c1cf30a09bab6b83fc81e5f9238e849f7adcbbc3",
        "n=6 z1-2": "1d32737188668fdaeb96033956b09a208bdc5b99afe769c502832c1a58c345f6",
        "n=6 z2-2": "514b489a14595f5c376c54b37de2feda1fc3a751eaec85ae343c21a1ef2bd527",
        "n=6 z1-4": "37d3c5f23d99e5a445983950bda6c3c257f5ee0e5af77808b8e3d85e1061bda9",
        "n=6 z2-4": "443dda07522f9bdf89b8c7d87481102e8752d0f806d73d5a2585ec9a86e37515",
        "n=6 z1-6": "5eadcc3ec861bc27493dd2c73c34a3fd2167ece7d4724304ec68e881d8706172",
        "n=6 z2-6": "3b838f218df3650f4a628a7f5c8d23f6ce6daf0a411ccbdbae2fd5251e4c34ce",
        "n=6 mixed": "85742fe0114c930eef941dc7fe36d1360ff28ae95f4bf590ad736de5df8e9986",
        "n=6 z1-4 +1 lower": "db06be5e3115c92f979ff593bc0328922a75b35db8052defd35a22ec1c4b6e49",
        "n=6 z1-4 +2 upper": "1584dd7c86220a8732223cbade2be1a5471dc855f730937ab71b9dc94e54188d",
        "n=6 z2-4 +1 lower": "87946c024894855085008bc8fc270d40ba39009121009e54ff2287d3c6bd3d62",
        "n=6 z2-4 +2 upper": "7e022497622363c3cb221c69e52f2159c867a8fc1c952d1a3145a1f12be11a17",
        "n=6 density 0.1": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=6 density 0.3": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=6 density 0.55": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=6 density 1": "aa7013ccb4dbe794dea87ea0e5c0d90b9ad5305c9e32677f208efd3a4ef8e59e",
        "n=7 z1-2": "0c981ec00052b2489dc244177cd8a377abdd15d344017ab4fb58817c42c3cc02",
        "n=7 z2-2": "57dd7211a9245f6de90d0c913cb1583bee3cc1cdc02dd579de2339af023f7c02",
        "n=7 z1-4": "d3fa656101c935e23b64f876181095060fb993c10ddfd1ea6bd06065242e6bd8",
        "n=7 z2-4": "84dc9cf667fbc975a61b556943cbe718e6605aa75031e4311b79f3fae63cee81",
        "n=7 z1-7": "8dafb096907f1c083c2f890e285319def3f279d4e719f5515cf31e04afff932e",
        "n=7 z2-7": "c49344e6a19de8dce8816083a49d2b4de8c84cf7f98727a69e98c43b80c4fea1",
        "n=7 mixed": "833f4d1cad8ed281332e4b0272ae2ddd3fa02b93cbfe7178e24e1c19dda17c0b",
        "n=7 z1-4 +1 lower": "aa8fd3245e2d52f9763093e6f412951b2b865400f2bdde515df5cd72cab4b20c",
        "n=7 z1-4 +2 upper": "9ce29fc6f20a3a4d947b721f89318dc5c1095e417a28610fd7fc170b5154415a",
        "n=7 z2-4 +1 lower": "5ef1c64d7602f065b71f8e6c0898a9918dec401ed4a1cd26dd6395c459b98c11",
        "n=7 z2-4 +2 upper": "5b60175b2eba528485efad9fca590c78fb054263ae041f0f0dc593fa703bd5c5",
        "n=7 density 0.1": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=7 density 0.3": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=7 density 0.55": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=7 density 1": "64f2263231878e4521c2dbb5771346f6f1b9fc15ab214dfb50ce351c3588b37a",
        "n=8 z1-2": "8514ded9869d982a8e845058c85f626e0a5ab84a8e577e5be7aff2e21219d6da",
        "n=8 z2-2": "c796267ec70c7dbca1f7ffcf6c4bc02f1b93d2bdb31e6fb1c86175fb30c032e7",
        "n=8 z1-5": "9248d94f7347b2188031e673bc899ef5d9d2f83c8237d4bbf9dd0e0bcaa7227b",
        "n=8 z2-5": "1473d2210e86749dc6f5c2c018f83eba88a34176146c8ef1fbb89e9b83cc52e9",
        "n=8 z1-8": "8de9aff5c48b7f466611b31564b6c0c2388bdc1cf079602afd7c27f03f6f310c",
        "n=8 z2-8": "ab6a6dc39ed9a79036f26c85bfcc361b81fed5947c32620970aeddc92b23211c",
        "n=8 mixed": "2c5b9a88aa3acd4105afce2cf4c69ebb7159dff1e1ed41f04c273854ffbd1f9a",
        "n=8 z1-5 +1 lower": "a74b0492a9f251b12d3368a5809de706a409dfcbd132bef0e2a4cbcfc2ab159e",
        "n=8 z1-5 +2 upper": "9492c584340b67d09e6e1b8eb0b91b966418904725d112f046ed6c72f1e226d5",
        "n=8 z2-5 +1 lower": "fca7a6bc6fd6e5394540a6bbe1a1f8e1ad09a22ce7dacb253028e78b9efb566f",
        "n=8 z2-5 +2 upper": "b38f1817e746201f0dfed8ea0571f2a5b7ac38f4e0b203ce3459e59e9fe5cd62",
        "n=8 density 0.1": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=8 density 0.3": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=8 density 0.55": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=8 density 1": "23a444f11a4158c069ac355cb1fc739b53602bdb6cda8653a9c4adcd2838a939",
        "n=9 z1-2": "85fa75aad7636c503764e3eb3ef8ba69c62d8d4160ba112703fb0d4b4907744f",
        "n=9 z2-2": "cf5160a84c6a75669b2695ac118eceb2035f7d18913538b836a293edba0a97b5",
        "n=9 z1-5": "0ca8fd05a3c0ae7ce5e068b3756edd2b0c1253b92908d41a2950bde9b801fe71",
        "n=9 z2-5": "c63f119c60bb16bb91f800417255c1f0f78bc226ce5bbbdbffe3123994b60cff",
        "n=9 z1-9": "ed92a94209ff0a95d89bae81495074f56f3e86a4fe603942df65c8fed659f12c",
        "n=9 z2-9": "0b5b3d4460799d2630a4ba290472d7da61c1cbf46d050c60dbb3537a0a73b010",
        "n=9 mixed": "8f1d88150dacef693abc733559ca49d3298817f22500a757eecf365383c1a6e9",
        "n=9 z1-5 +1 lower": "415448b3d6588d609d279287b811984b43697f627f0c9e64f4583a6cc91b8905",
        "n=9 z1-5 +2 upper": "d58975d369f1764477304dc31c63b5068d182c414d1e8ae10771dfbf04999e76",
        "n=9 z2-5 +1 lower": "9d8c2eb4bd4d5ecfb284c1bc61c6478e027c337f46aa5626c0de1f4a8c43c6f9",
        "n=9 z2-5 +2 upper": "e548c5105aa5fce6159cff897bcb6b0e054e58fbc0cc50f4763f72a78cc598c4",
        "n=9 density 0.1": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=9 density 0.3": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=9 density 0.55": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=9 density 1": "ccf46de65bf6f321f50a80d3c2ed05c59660b7b93f6f03b6a80e337fe619db7d",
        "n=10 z1-2": "130f5a4b5d765e9e0a6971f1cf8fc3939d7e2fb24990f0b36a5933ef325dae0d",
        "n=10 z2-2": "11f88c05df32f7c51f5a185c11f2d37fa8333fc9c18467832f905a8d6c8a25c5",
        "n=10 z1-6": "c3366c1f9a631b8888b7f2637d3f45ad0d5bcdd3236c3beff13620b3085d85e0",
        "n=10 z2-6": "852304ec34fb9687ab86554fd3287a0932ef634f932e5237b60d72a9edbfaa99",
        "n=10 z1-10": "8e58bab332dc4a832ba1e90efe732515d1a7813ac8571a6afe8e20f6c8806fcd",
        "n=10 z2-10": "100f2a92c3fa2df5d9965bd85520ca354d700d88efaecb701eae082481240268",
        "n=10 mixed": "b96b38438bd5093313559d3a042b2745be6433162b20a414e938685ecdf4034a",
        "n=10 z1-6 +1 lower": "fdd294b397cd2dbd3bce4e5178d2b3a7d16dbc102afbd48410f15e659d21c5e9",
        "n=10 z1-6 +2 upper": "ffdf549ecefa1f81056af949159c15b77f053351e7ea33def7266df06facf66a",
        "n=10 z2-6 +1 lower": "0dccad85f3a3117128bb379b6c01f470001245a747456a82822f78ee372e52e2",
        "n=10 z2-6 +2 upper": "634668fa035fb4a32bf5c051bdcf57c59ad64c77327e8ca7dbc1f84aea620d18",
        "n=10 density 0.1": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=10 density 0.3": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=10 density 0.55": "a6c054841578722c7a7a282ad3a451eb15a4d0ebca668b24157beb9e8dc2302b",
        "n=10 density 1": "1706835e14400ff3403d7a7296e5cade75028d88d6599e1ec1713a40f283750b",
    },
}


@pytest.mark.parametrize("method", ["brute", "theorem", "predict"])
def test_exponent_payload_digests(tmp_path, capsys, method):
    got = {
        name: run_digest(
            tmp_path, capsys, "input.json", dumps_matrix(a), ["exponent", "--method", method]
        )
        for name, a in exponent_inputs()
    }
    assert got == EXPONENT_DIGESTS[method]
