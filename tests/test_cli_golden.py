"""Golden CLI outputs.

Every command runs in-process at (4,2) and (4,3), once to stdout in
its default format and once with ``--out`` (in JSON where the command
has a JSON writer), and commands with a JSON writer also write JSON to
stdout; ``weight`` and ``classify`` also run on a fixed (5,2) form.
``points``, ``lines`` and ``genmat`` also run at (4,4) and (4,8), whose
field codes have two digits, to stdout and with ``--out``.
The exit code and the sha256 of stdout and of every file written are
pinned, so any change of output bytes shows here.  Stderr carries
wall-clock times and is not pinned.
"""

import contextlib
import hashlib
import io
import json

import pytest

from hermgrass import cli

# Fixed forms for weight and classify, keyed by (m, q); all over GF(q^2)
# with q prime, so the form file has e = 1.
FORMS = {
    (4, 2): [1, 2, 0, 3, 1, 0],
    (4, 3): [1, 0, 5, 0, 8, 2],
    (5, 2): [1, 0, 2, 3, 0, 0, 1, 0, 2, 1],
}
# Commands with a JSON writer, and commands that write one format to --out.
JSON_OUT = ("params", "points", "lines", "bounds", "spectrum", "weight")
PLAIN_OUT = ("genmat", "classify", "min-word")


def _cases():
    """(id, argv, form key or None); "{out}" and "{form}" are filled in
    with paths at run time."""
    for m, q in ((4, 2), (4, 3)):
        field = ["-m", str(m), "-q", str(q)]
        for cmd, extra in (
            ("params", []),
            ("points", []),
            ("lines", []),
            ("genmat", []),
            ("bounds", []),
            ("spectrum", ["--exhaustive", "--jobs", "1"]),
            ("spectrum", ["--sample", "300", "--seed", "5", "--jobs", "1"]),
            ("min-word", ["--exhaustive", "--jobs", "1"]),
            ("min-word", ["--construct", "--jobs", "1"]),
            ("verify", ["--jobs", "1"]),
        ):
            mode = extra[0].lstrip("-") + "-" if extra and extra[0] != "--jobs" else ""
            tag = f"{cmd}-{mode}{m}-{q}"
            yield tag, [cmd, *field, *extra], None
            if cmd in JSON_OUT:
                yield f"{tag}-json", [cmd, *field, *extra, "--format", "json"], None
                yield f"{tag}-json-out", [cmd, *field, *extra, "--format", "json", "--out", "{out}"], None
            if cmd in PLAIN_OUT or cmd == "spectrum":
                yield f"{tag}-out", [cmd, *field, *extra, "--out", "{out}"], None
    # q = 4 and 8: field codes up to 15 and 63, so entries of two digits
    for m, q in ((4, 4), (4, 8)):
        field = ["-m", str(m), "-q", str(q)]
        for cmd in ("points", "lines", "genmat"):
            yield f"{cmd}-{m}-{q}", [cmd, *field], None
            yield f"{cmd}-{m}-{q}-out", [cmd, *field, "--out", "{out}"], None
    for m, q in sorted(FORMS):
        field = ["--form", "{form}", "-q", str(q)]
        yield f"weight-{m}-{q}", ["weight", *field], (m, q)
        yield f"weight-{m}-{q}-json", ["weight", *field, "--format", "json"], (m, q)
        yield f"weight-{m}-{q}-json-out", ["weight", *field, "--format", "json", "--out", "{out}"], (m, q)
        yield f"classify-{m}-{q}", ["classify", *field], (m, q)
        yield f"classify-{m}-{q}-out", ["classify", *field, "--out", "{out}"], (m, q)


CASES = {tag: (argv, form) for tag, argv, form in _cases()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(tag: str, tmp_path) -> tuple[int, dict]:
    """Exit code and {output name: sha256} of one case, run in tmp_path."""
    argv, key = CASES[tag]
    form = tmp_path / "form.json"
    if key is not None:
        m, q = key
        form.write_text(json.dumps({"m": m, "p": q, "e": 1, "upper": FORMS[key]}) + "\n")
    out = tmp_path / "out"
    argv = [a.replace("{out}", str(out)).replace("{form}", str(form)) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    hashes = {"stdout": _sha(buf.getvalue().encode())}
    for path in sorted(tmp_path.iterdir()):
        if path != form:
            hashes[path.name] = _sha(path.read_bytes())
    return code, hashes


# Recorded from the code before linalg.dot replaced the table loops; the
# JSON-to-stdout cases from the code before the CLI had one output writer;
# the q = 4 and 8 cases from the code before the byte text writer.
GOLDEN = {
    "bounds-4-2": (0, {
        "stdout": "4286a06bd5fb7282d2e31d6173c6e702ce50f701b78bc3c409d382451bdec896",
    }),
    "bounds-4-2-json": (0, {
        "stdout": "4c8fcb084f29b06f54e261afabd548a4a7ac1301cfad392fe4e06bad416987dd",
    }),
    "bounds-4-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "4c8fcb084f29b06f54e261afabd548a4a7ac1301cfad392fe4e06bad416987dd",
    }),
    "bounds-4-3": (0, {
        "stdout": "bd9e7477dec0af9edf23644883ad71e7d7a4d4b244001959cd5a07ddd562fbcc",
    }),
    "bounds-4-3-json": (0, {
        "stdout": "e0c26b2d4f7dcc44b9b4a92576f322706476b3883db32bfa5b7127dd7077de9a",
    }),
    "bounds-4-3-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "e0c26b2d4f7dcc44b9b4a92576f322706476b3883db32bfa5b7127dd7077de9a",
    }),
    "classify-4-2": (0, {
        "stdout": "9db1d58165f50ebaa66ca3845873d854446924653dead888ccbd61ace849cee1",
    }),
    "classify-4-2-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "9db1d58165f50ebaa66ca3845873d854446924653dead888ccbd61ace849cee1",
    }),
    "classify-4-3": (0, {
        "stdout": "9da99f63be599c136088c93f06a51d0827d9a821d318c740e4d4faf5bae63ddd",
    }),
    "classify-4-3-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "9da99f63be599c136088c93f06a51d0827d9a821d318c740e4d4faf5bae63ddd",
    }),
    "classify-5-2": (0, {
        "stdout": "82c57d5302b692f651a781069ade0ae30a3aa83abc4983840a65a8b70545cb39",
    }),
    "classify-5-2-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "82c57d5302b692f651a781069ade0ae30a3aa83abc4983840a65a8b70545cb39",
    }),
    "genmat-4-2": (0, {
        "stdout": "39879d6dee9e1647fe7fcdb914ce1fe2918012a384e79e70843b36cc6e3688c2",
    }),
    "genmat-4-2-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "39879d6dee9e1647fe7fcdb914ce1fe2918012a384e79e70843b36cc6e3688c2",
    }),
    "genmat-4-3": (0, {
        "stdout": "02e733fb3afccd8b947084f03ce454192067bf0a2fcf836b3fc7bd9e29cfaedd",
    }),
    "genmat-4-3-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "02e733fb3afccd8b947084f03ce454192067bf0a2fcf836b3fc7bd9e29cfaedd",
    }),
    "genmat-4-4": (0, {
        "stdout": "115549cefc75f15ee6f9e72403516236299c27e3fb0e1c86f3f174aec3032320",
    }),
    "genmat-4-4-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "115549cefc75f15ee6f9e72403516236299c27e3fb0e1c86f3f174aec3032320",
    }),
    "genmat-4-8": (0, {
        "stdout": "4397b57561db265b09dd83d904dbee3a64d3c889b117b258fcf857f848ff4e03",
    }),
    "genmat-4-8-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "4397b57561db265b09dd83d904dbee3a64d3c889b117b258fcf857f848ff4e03",
    }),
    "lines-4-2": (0, {
        "stdout": "400cb647ba66b44c384a52c62c2a1d1dcf2291b65ac9a207793bb980f5bff684",
    }),
    "lines-4-2-json": (0, {
        "stdout": "71a83b67ea4dc774a526442fb11afcabcdc39ecb978d4fe1a99b2e4a994b4207",
    }),
    "lines-4-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "71a83b67ea4dc774a526442fb11afcabcdc39ecb978d4fe1a99b2e4a994b4207",
    }),
    "lines-4-3": (0, {
        "stdout": "f0469887f2c2e9f0db9d4f35408ee2f9e1385b1feb5a62b7576adce65b9047bd",
    }),
    "lines-4-3-json": (0, {
        "stdout": "017b705a97fcab6fdfa65ffa1db78ade9df2baa0ace8294202fefa0085785013",
    }),
    "lines-4-3-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "017b705a97fcab6fdfa65ffa1db78ade9df2baa0ace8294202fefa0085785013",
    }),
    "lines-4-4": (0, {
        "stdout": "cc51c41a7fe470002af742aa88f641d49bfb832e7b993b9c821c8ac5c6cda950",
    }),
    "lines-4-4-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "cc51c41a7fe470002af742aa88f641d49bfb832e7b993b9c821c8ac5c6cda950",
    }),
    "lines-4-8": (0, {
        "stdout": "60e1eb626922e9013607bda2ef1eeba04bd310ce61e1987d806ec536683563d5",
    }),
    "lines-4-8-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "60e1eb626922e9013607bda2ef1eeba04bd310ce61e1987d806ec536683563d5",
    }),
    "min-word-construct-4-2": (0, {
        "stdout": "9cbcb49dd6501d7bf763eb04441c74b0bf865be9a8dd269a0682626fa998897e",
    }),
    "min-word-construct-4-2-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "9cbcb49dd6501d7bf763eb04441c74b0bf865be9a8dd269a0682626fa998897e",
    }),
    "min-word-construct-4-3": (0, {
        "stdout": "d924592743ea607ef1e51ed7b9893667d19b7272ccdf6ab6535209a3e578d01b",
    }),
    "min-word-construct-4-3-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "d924592743ea607ef1e51ed7b9893667d19b7272ccdf6ab6535209a3e578d01b",
    }),
    "min-word-exhaustive-4-2": (0, {
        "stdout": "59eac3b7d53071907551eb12bb1f4acd244dfe1a6f3469b7c18ddb6c2222a658",
    }),
    "min-word-exhaustive-4-2-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "59eac3b7d53071907551eb12bb1f4acd244dfe1a6f3469b7c18ddb6c2222a658",
    }),
    "min-word-exhaustive-4-3": (0, {
        "stdout": "82b28e82bf0f7a090058ba887223fbb77b3d55ce25534b49b09785169d7ddf61",
    }),
    "min-word-exhaustive-4-3-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "82b28e82bf0f7a090058ba887223fbb77b3d55ce25534b49b09785169d7ddf61",
    }),
    "params-4-2": (0, {
        "stdout": "2dc31afffc00266acba203471fcbe862a89a209fa826abbb9fbf5ec2915961f1",
    }),
    "params-4-2-json": (0, {
        "stdout": "5f8415f369147da59ba87bf541bd7bd7d5bcd549339ce632f006e7fc1dde7589",
    }),
    "params-4-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "5f8415f369147da59ba87bf541bd7bd7d5bcd549339ce632f006e7fc1dde7589",
    }),
    "params-4-3": (0, {
        "stdout": "10bf7f2981fc58dedbc14662ee9e2045e04d6e44317ea4394bda3198dfe46004",
    }),
    "params-4-3-json": (0, {
        "stdout": "ce622f778ff432cec847d25007831128cb124c3a58bff41576861baf93960a83",
    }),
    "params-4-3-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "ce622f778ff432cec847d25007831128cb124c3a58bff41576861baf93960a83",
    }),
    "points-4-2": (0, {
        "stdout": "ae34c621374431071b7081aafd723b31673037d2aa5a1c063670df99fcee9024",
    }),
    "points-4-2-json": (0, {
        "stdout": "9782a5eeea11a1cfe66e37db842e1eec32a9d80aa88a999925326d03169b77b8",
    }),
    "points-4-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "9782a5eeea11a1cfe66e37db842e1eec32a9d80aa88a999925326d03169b77b8",
    }),
    "points-4-3": (0, {
        "stdout": "be95b4dfd7557f80b08d563976180143a6a0daa3f553d78bfb42574d4dd5a828",
    }),
    "points-4-3-json": (0, {
        "stdout": "f62318fd5ad31f67f7747d09f87c0abedbee836b7bca1c13bdbf53e931faca08",
    }),
    "points-4-3-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "f62318fd5ad31f67f7747d09f87c0abedbee836b7bca1c13bdbf53e931faca08",
    }),
    "points-4-4": (0, {
        "stdout": "911cbe7a4a914a2f15776443e947d22b6de6c3948b19a0afcf7ec25d4e1d75a3",
    }),
    "points-4-4-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "911cbe7a4a914a2f15776443e947d22b6de6c3948b19a0afcf7ec25d4e1d75a3",
    }),
    "points-4-8": (0, {
        "stdout": "97c40813aeb924d5ba829eab306981f5eecf399124a4766ee482c5c1c1577203",
    }),
    "points-4-8-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "97c40813aeb924d5ba829eab306981f5eecf399124a4766ee482c5c1c1577203",
    }),
    "spectrum-exhaustive-4-2": (0, {
        "stdout": "7b04f39cbe81d1eca05f13b2bf8f4f255bd4115274a57b034d013723c82f4b76",
    }),
    "spectrum-exhaustive-4-2-json": (0, {
        "stdout": "0b5bce97b558b7830cc84ab5c0990d42c1481f249c80a58718c1e757c2c94b86",
    }),
    "spectrum-exhaustive-4-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "0b5bce97b558b7830cc84ab5c0990d42c1481f249c80a58718c1e757c2c94b86",
    }),
    "spectrum-exhaustive-4-2-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "70f62f71b36cceb3d1754916854cd19c0aacace8db1d8235c0e6b0998a49302c",
        "out.meta.json": "11c26b2d91b41e1e95bf1952b1aa43b953eb8f96db7d00e92a9b6962f2a30afe",
    }),
    "spectrum-exhaustive-4-3": (0, {
        "stdout": "5b03c90d63c750d4c72e60d3397709f1169110bfb937b41b15383bf0d1a31958",
    }),
    "spectrum-exhaustive-4-3-json": (0, {
        "stdout": "bbfe56aecb3835b9f06bd86400fc5660d12e9611d840957c3e583a36218e0a4c",
    }),
    "spectrum-exhaustive-4-3-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "bbfe56aecb3835b9f06bd86400fc5660d12e9611d840957c3e583a36218e0a4c",
    }),
    "spectrum-exhaustive-4-3-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "a20ed781d740a1cc878e744b7c7ad22ee5644dc33b2adef17479928256fa686c",
        "out.meta.json": "e029f14c0bcba07ed00f892207e8c2fbea51dab4b5bc6883653104f57eaed7b5",
    }),
    "spectrum-sample-4-2": (0, {
        "stdout": "b53f6bc57532d22a5f2366cd14bdf9e28ecea642b072b0105fa9111666b72c5d",
    }),
    "spectrum-sample-4-2-json": (0, {
        "stdout": "d27ac7a62081e3eda4e67652070f2891f3c059dbb4baedba6b77549c9d9ddb17",
    }),
    "spectrum-sample-4-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "d27ac7a62081e3eda4e67652070f2891f3c059dbb4baedba6b77549c9d9ddb17",
    }),
    "spectrum-sample-4-2-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "30df0bd1b8f0dd60eecc74a849678e2be7f1e41daba3dd93ccb502bf38189871",
        "out.meta.json": "a0338e483f225d773a1d9054fd66b63b6f8d6f18d5c136892dd07f9fe9534138",
    }),
    "spectrum-sample-4-3": (0, {
        "stdout": "61b768adec663d121435982cee686db50f5b04cda7b77b162487c00cc80eb127",
    }),
    "spectrum-sample-4-3-json": (0, {
        "stdout": "85d1088c16411166457bf502f2d87674cdc8154c84ec700e33c9bf911cb9424a",
    }),
    "spectrum-sample-4-3-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "85d1088c16411166457bf502f2d87674cdc8154c84ec700e33c9bf911cb9424a",
    }),
    "spectrum-sample-4-3-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "7cb668628e95e7eadacf5e0a6acbbec355b4cc2fba203989bcb80638a259fcd5",
        "out.meta.json": "bf8e0b2b1700b4f5da3028e85ff9267c4daad913cd010fbd154e377f405acf9e",
    }),
    "verify-4-2": (0, {
        "stdout": "495db063a93a7396a68d82513ecd04ad4d5e15a2d1ba61f7d26f14bf1ab37033",
    }),
    "verify-4-3": (0, {
        "stdout": "cee0cf9184c502f43cc8e346074c843b0fdfc319ea782ce0b55e6227bdadad13",
    }),
    "weight-4-2": (0, {
        "stdout": "dd8a08bb7fe70c722f3b6d0e2fb3007d7563963a75a703fa2b8617d530f7de48",
    }),
    "weight-4-2-json": (0, {
        "stdout": "613724940c984ab8e1e231d0641edb512d381777134739ecf226d1aed4339029",
    }),
    "weight-4-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "613724940c984ab8e1e231d0641edb512d381777134739ecf226d1aed4339029",
    }),
    "weight-4-3": (0, {
        "stdout": "ab11b3938c4f9bbeb1286583c5d35410226e12c2a095f22525f95a86da0b78d8",
    }),
    "weight-4-3-json": (0, {
        "stdout": "b150b7bbf0b2fc4f421ba2f9f9d8d2aa92d7a318281b2e4e3bf30ea623478cc2",
    }),
    "weight-4-3-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "b150b7bbf0b2fc4f421ba2f9f9d8d2aa92d7a318281b2e4e3bf30ea623478cc2",
    }),
    "weight-5-2": (0, {
        "stdout": "77e07ba5ab75819f7d349760c9ecb4bda887200ad6487a16b068443494013365",
    }),
    "weight-5-2-json": (0, {
        "stdout": "408f64f3656b0f34df6881e85d180fa9907d08e426d786660413f2b1e68151d8",
    }),
    "weight-5-2-json-out": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "408f64f3656b0f34df6881e85d180fa9907d08e426d786660413f2b1e68151d8",
    }),
}


@pytest.mark.parametrize("tag", sorted(CASES))
def test_cli_output_golden(tag, tmp_path):
    assert run_case(tag, tmp_path) == GOLDEN[tag]
