"""Pinned SHA-256 digests of CLI payloads the benchmark's golden digests
do not cover.

``exponent --method predict|theorem`` payloads are pinned at n = 11 and
12 on seeded Z1, Z2 (several partial chains), mixed and plus-extra
shapes.  ``network`` runs, with and without ``--copies 2``, are pinned on
the factor text of every corpus matrix and of seeded factorizations at
n = 5..8, and the n = 9 ``--copies`` refusal (exit 3) with them.
``factorize`` (JSON and ``--form wq --format text``) and ``classify``
(default and ``--method seb``) are pinned on every corpus matrix and on
seeded TP, basic, oscillatory and ITN-only factorizations at n = 2..10,
where ``classify`` refuses a non-TP input at n >= 9 (exit 3);
``exponent`` on inputs every route refuses.  A
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
    "classify seb": ["classify", "--method", "seb"],
}


# exit code, stdout and stderr of each run, recorded while compose walked
# the flat layout itself and the index counts read each side twice
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
        "n=9 basic": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 oscillatory": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 itn-only": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=10 tp": "423f8e2c63fd36c9f4e7d44551b964a8cc7d15a14137ad75c8ebce75d8760ad1",
        "n=10 basic": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 oscillatory": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 itn-only": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
    },
    "classify seb": {
        "elim3": "5b1fbb6893a001d171ced3839be425b11bf74edef1a2cc28f5c282cc775f9705",
        "basic4": "03b23a5dc73c0345292f67866564da091792540e43e916b4ca2daef1182730bd",
        "net4": "37f812e809059ac4dfeb1717cd4978a24916b23eabf5475fbb14ce928cd28e68",
        "exp4": "3bbfde9da2c1c4cb4d747d21abf969cf51f9d9adfebdf47ea83aee177b810680",
        "exp5": "0f46c6e24d36c0886739c674661e87180e16636d56e8119346cd1ef64c7227fa",
        "pair_a": "441440f416f7c2b55989fc0c96b16fea06a2589374d3a606a895937c665e2546",
        "pair_b": "441440f416f7c2b55989fc0c96b16fea06a2589374d3a606a895937c665e2546",
        "early_a": "3bbfde9da2c1c4cb4d747d21abf969cf51f9d9adfebdf47ea83aee177b810680",
        "early_b": "735f79d7654e0296d40475a000beb84733aa5ab7379d973278196da7e49bdb02",
        "bound3": "7d244d65fee899a887e32ef75a107a4cd491708ace9f79e5f6e62a2606b905cd",
        "n=2 tp": "4b3aa8f8038b093b14888e88680de6c27e7bde1186efe8e6d237537947b781db",
        "n=2 basic": "4b3aa8f8038b093b14888e88680de6c27e7bde1186efe8e6d237537947b781db",
        "n=2 oscillatory": "4b3aa8f8038b093b14888e88680de6c27e7bde1186efe8e6d237537947b781db",
        "n=2 itn-only": "db312f7f9bf4eca1157e82936982c69945100e65b712fce55ec0f34ade6828f0",
        "n=3 tp": "5b1fbb6893a001d171ced3839be425b11bf74edef1a2cc28f5c282cc775f9705",
        "n=3 basic": "6841ae448219a4732aea07335c48c8247d8a67467a13e859d383091e24cf60c8",
        "n=3 oscillatory": "ec7a0f163cbb73390c21411dbc56d276c403c8d53fc206cb7049bb7068262f18",
        "n=3 itn-only": "4582726b86f931b02e0ea3374a2d269094def502145655ada2ca43f164ae7d15",
        "n=4 tp": "932b0aa34d7546e59bd34bbb2eb05c7d3750f44498fde78106e3dc432a1af46e",
        "n=4 basic": "3f534c09dbcb821df4480be0bb809ed842abbfab091f584f56069cb97e660a08",
        "n=4 oscillatory": "03b23a5dc73c0345292f67866564da091792540e43e916b4ca2daef1182730bd",
        "n=4 itn-only": "4a79487b291f3a3fed0a976451343a19358c311ebdd1f2108ebb7c349587bd68",
        "n=5 tp": "63b045d755161d91d85bbd9d1785d3caa40e3afa44aab650b2747534a4c042c1",
        "n=5 basic": "8125c8854e8e0a5c8f52a4f0fb384b4729417203cd96f519b417ea05f453c28e",
        "n=5 oscillatory": "be8a9db3edb97c1587b6b78cb410a4b0d06e7f2c7b3c7af2772e4d4b2c0890dd",
        "n=5 itn-only": "5b67ec7f5d7c2be1591ba12658102fa2171d3e251422889b13f660b8e462cab3",
        "n=6 tp": "de5ac1c04d5fe53d2eda553cfa27b29c0c5deeeef4bd25467a2060accb58e7ae",
        "n=6 basic": "48d46e2b5c1aeae55e1c236d7a390c732a790c7b05d9ef94a1d1b168952ff8f7",
        "n=6 oscillatory": "7495fd898e8ebfee73dfd2fcefd1a75e8989490e5fa94b1582121c983c85cc55",
        "n=6 itn-only": "0a6889952f448b9af2abff4def04e9e89e8174601a0f88f08ef75697f3ba50ec",
        "n=7 tp": "3058caa9d39c9cb3355bdda3c7183191cd5a7e349fa1a85e696172932c43631d",
        "n=7 basic": "b69d9f231d64f4cc06682deed47a6c666f3045a56426ecfab5200d5f6cf5912b",
        "n=7 oscillatory": "2c60fed50bb42f8e2f213c88efcb79ba2dc819d61c8bdc63e66d95540619af2d",
        "n=7 itn-only": "f8f8ea111407b8fed08ecf08d24070314abe5fa593156a0c1aaf24e7d607505c",
        "n=8 tp": "6b845872aa14ece6b4d15841669d2509e828628734cd47fcf30c99372b4fbed6",
        "n=8 basic": "98cf6948a69a91f4a0ff17b337e0db9101a09d0db2893d7f5cede92b6065f3be",
        "n=8 oscillatory": "f93c2fe051379384abdae58a66a4b2253320748d0971fc2ec219cc6913bde624",
        "n=8 itn-only": "89a5e1bc1ca9856b05916c427b014aeacce998d1eff195bf77c96186d7bf1881",
        "n=9 tp": "384a228f210c47b50d9f1783148e0879705f1c0a4892809c21a1a2f791ff34b3",
        "n=9 basic": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 oscillatory": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=9 itn-only": "592937f7d439953ded19b08f6159848f2dc2ff4d48e1f9c9035333ce8367b95d",
        "n=10 tp": "790f9308e4add2a2cfe0f0481d7abe1b409d2434a7f0c003e165523dd59a5cb8",
        "n=10 basic": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 oscillatory": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
        "n=10 itn-only": "279b827d6b7dcd7f7bc6f6f3a6a53119a3a146132b7f2a943e67d76408715404",
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
