"""Every bit pin of the suite, each digest written once.

The tests that pin the exact bytes of the engines, the writers and the
scripts read their digests here, through `check`; pytest does not collect
this module. A pin's name is its group, the producer, then "/" and the run
or file within it, and a guard in tests/test_api.py fails when a group is
read by no test, or when a 32- or 64-hex literal appears in another test
module.

The digests hold for glibc's `exp`; tests/test_exp_drift.py checks which
results hold under another. `GOLDEN["libm/exp"]` fingerprints the `exp` they
were taken with, so a failure says whether the libm or the code moved them.
Nothing writes this file. A change that moves bits on purpose is one run of
`pytest -k pinned`, whose failures print the libc they ran on, whether its
`exp` matches the fingerprint, and each moved pin as a line of `GOLDEN`,
then an edit of those lines by hand, logged in CHANGES.md with that printout.
"""

import hashlib
import math
import platform
import struct

from conftest import cell_fields

GOLDEN = {
    # md5 of each corpus variant's `simulate --lambda 2 --steps 200` CSV, of
    # its `sweep --lambdas 0.5,1,2,4` summary.csv, and of that sweep's
    # trajectory_lam4.csv and report_lam4.json (None: no file, the run
    # failed): a change to the engines, the classifier, the criteria or the
    # writers that moves one byte fails here.
    "variant_files/web_case1_fgcm/simulate.csv": "7eb490fdd5f3e9b22ab53034a36cf893",
    "variant_files/web_case1_fgcm/summary.csv": "bf40b76cf8e392c7e568b016e74c80e0",
    "variant_files/web_case1_fgcm/trajectory_lam4.csv": None,
    "variant_files/web_case1_fgcm/report_lam4.json": None,
    "variant_files/web_case1_fggcm/simulate.csv": "5c6eb8a941570b6d00c07d083f505444",
    "variant_files/web_case1_fggcm/summary.csv": "47485b7ee7fc3ee082f21e5074d1af53",
    "variant_files/web_case1_fggcm/trajectory_lam4.csv": "0b9b8193f6796141cf77cc99d0945dc8",
    "variant_files/web_case1_fggcm/report_lam4.json": "f3f84280a3b50f6c6c8c53518cdb8c21",
    "variant_files/web_case2_fggcm/simulate.csv": "6e036cb55b375990a1500bfd51c9c95f",
    "variant_files/web_case2_fggcm/summary.csv": "d9e1e7aeb44775c6fb062aa1d985cd3a",
    "variant_files/web_case2_fggcm/trajectory_lam4.csv": "1b32bf1800d65dbe87c1e2dae8c85e40",
    "variant_files/web_case2_fggcm/report_lam4.json": "706e503b893a90926abb320ac2c9205b",
    "variant_files/web_fcm/simulate.csv": "5fc26fb59cb7f252671f2fca000ece33",
    "variant_files/web_fcm/summary.csv": "c77c2cc4b27ceaa1d0e7aa653f8744e6",
    "variant_files/web_fcm/trajectory_lam4.csv": "49e92b5a14c676f850cfba2e684fc9e8",
    "variant_files/web_fcm/report_lam4.json": "2b9e785ae7beac167135f412f0ce5372",
    "variant_files/web_fgcm/simulate.csv": "4e0ef443ffc307399ef64939b3f7927b",
    "variant_files/web_fgcm/summary.csv": "7d007b9d17ffa006ecba1ed1407ae6dc",
    "variant_files/web_fgcm/trajectory_lam4.csv": "5a8f49bf4d48fc41e98fb4a37a285efc",
    "variant_files/web_fgcm/report_lam4.json": "6c6b60990c72b4cf91a39c67e037a9e3",
    "variant_files/web_fggcm/simulate.csv": "5c6eb8a941570b6d00c07d083f505444",
    "variant_files/web_fggcm/summary.csv": "47485b7ee7fc3ee082f21e5074d1af53",
    "variant_files/web_fggcm/trajectory_lam4.csv": "0b9b8193f6796141cf77cc99d0945dc8",
    "variant_files/web_fggcm/report_lam4.json": "9ae72c0518be9ebec12c5f64d77647a1",

    # md5 of `simulate --steps 100` on each tests/test_cli.py dense_fgcm_doc:
    # the interval kernel on a dense map, from a state with every lo >= 0
    # and from one with lo < 0.
    "dense_fgcm/nonnegative_lo": "a6010cd13c36963156c152b07e304bd4",
    "dense_fgcm/negative_lo": "92a2c55afda41a73a78319056392d22c",

    # md5 of `simulate --steps 200` on each tests/test_cli.py survey_docs
    # pair. Seed 26 runs a chaotic tail with activations within 2e-10 of 1;
    # seed 12 is a fixed point whose kernels repeat exactly from step 31
    # while the greyness moves on until step 116.
    "survey/12/fcm.csv": "e9823d6d30c2d4f07ba1b19feca6fc1d",
    "survey/12/fggcm.csv": "fe2fe3a55eae8cc9abdbe56a44fa444a",
    "survey/26/fcm.csv": "ff8b3538b782587604a1d0e48d358646",
    "survey/26/fggcm.csv": "5dc12f73bcaf9992afcab19106546fc2",

    # `trajectory_digest` of each variant's 200-step run at each lambda, as
    # the object-level engines the float planes replaced computed it: any
    # drift in accumulation order or min/max tie handling shows.
    "corpus_runs/web_case1_fgcm/0.5": "3fcf8d42f6c400abbb94402f6d298b3b68f7c28680156658d257f11d4901faf1",
    "corpus_runs/web_case1_fgcm/1.0": "6b9c52bd1fe1cebe6904718b56127e5054c2e00ed281154942294fd080d8b55b",
    "corpus_runs/web_case1_fgcm/2.0": "3f30e6215fc8a4ff6428faebd1ae2c886838eee671b777dd774b2f8eff0b8f7a",
    "corpus_runs/web_case1_fgcm/4.0": "c836f262142e1fe896f7c9bddfce9731be39212a156ed2daa247920024046f9b",
    "corpus_runs/web_case1_fggcm/0.5": "17d430aee976e2234c49cc4b8a8a9ffbe0ec5ec7bace35550048022af83769f8",
    "corpus_runs/web_case1_fggcm/1.0": "d08b37b821162c12d1aa9c946e76d2bb60ebfad8ecd4ab8cb89f4ac68975a5d0",
    "corpus_runs/web_case1_fggcm/2.0": "8767ef55c9a5c7ad625a50d92ab88c2017e803e67835ced445cb8c16905823b5",
    "corpus_runs/web_case1_fggcm/4.0": "269fe4c9a4589c8bb1a64a00d4dff33ba735f2ed3f052915249374b4f734750e",
    "corpus_runs/web_case2_fggcm/0.5": "34bae93d2f8499daf42c4ffad521e17b3d632e3b6c7cfd49db7743528a5b9e8a",
    "corpus_runs/web_case2_fggcm/1.0": "5683eec4581d14de4aa51fe62b4a7d7f94985b72b93cccaeefc73a2f3e5c4deb",
    "corpus_runs/web_case2_fggcm/2.0": "b223e811ef12db15175f014553781cf666cfb8ed30093ddc5cd65a4a54d4434b",
    "corpus_runs/web_case2_fggcm/4.0": "9d789701849c4e80098f31964d361507b171f3d9cea73837c55bdbd8b768b5ad",
    "corpus_runs/web_fcm/0.5": "83b27e9407092bd156bbb476d983b59f06da40fd88b890fbe9a5580f79f2c683",
    "corpus_runs/web_fcm/1.0": "86077d2429921641793807c2df310e0424ad2b0da8c94dbbf63cfd54bebc304f",
    "corpus_runs/web_fcm/2.0": "e615d71c251ec26e2311244a8e68a23dc03a43348485de5a404a6e7d03196283",
    "corpus_runs/web_fcm/4.0": "56086ec5d7fd5c21adffe0e7def3fb16fc8c89d8296cc230823bd3100fc69fbd",
    "corpus_runs/web_fgcm/0.5": "9ead599326b784c09bc58db6718b3fe5166c404822361cb3e64b7f29187aee76",
    "corpus_runs/web_fgcm/1.0": "1fad7ccb212398d1237592b07c202b89231654f5e1d41e6f93dd020a77ecdad3",
    "corpus_runs/web_fgcm/2.0": "b484af4ae7f21aa722de963678684a30e0b441c8524cafec493220039743d934",
    "corpus_runs/web_fgcm/4.0": "020e8d43267f591d3ce444be3f5aecf0b79403b86df18819bf1e0a879781f353",
    "corpus_runs/web_fggcm/0.5": "17d430aee976e2234c49cc4b8a8a9ffbe0ec5ec7bace35550048022af83769f8",
    "corpus_runs/web_fggcm/1.0": "d08b37b821162c12d1aa9c946e76d2bb60ebfad8ecd4ab8cb89f4ac68975a5d0",
    "corpus_runs/web_fggcm/2.0": "8767ef55c9a5c7ad625a50d92ab88c2017e803e67835ced445cb8c16905823b5",
    "corpus_runs/web_fggcm/4.0": "269fe4c9a4589c8bb1a64a00d4dff33ba735f2ed3f052915249374b4f734750e",

    # `trajectory_digest` of the 100-step run of tests/test_cogmap.py's
    # seeded_map for each family and seed: weights and cells of both signs.
    "seeded_runs/fgcm/11": "1c3429aa78f48d22ce670ba2487a52ac1040d1969d9c7b40cafd613b5cdd57bd",
    "seeded_runs/fggcm/12": "8bd54f97ad6624b9ba63b351cb76bfc18cf9f669f31cb4ad07d2d9b897054500",

    # sha256 of json.dumps(export_variant(v)): the exported bytes.
    "exports/web_case1_fgcm": "bfd160ea3094a7e7dccddfb87040bdfa4135476bca5364ec4e0710d5d768921a",
    "exports/web_case1_fggcm": "30f7b65ea3880fcd8ad204a2e8e4c412be9b4a37dc98457f3b2711adfea23344",
    "exports/web_case2_fggcm": "7e617465780a085aa0345a9f9f909edef9a6b0b609072478f0e88d43f341141b",
    "exports/web_fcm": "27ed48b2e13f312ecfd7bb910929549892b975502235afc708b29a39e1673114",
    "exports/web_fgcm": "f73e1ae6a62cd493e05a39b2e8e9bea62a5663dd172eb78d839d31d8e3ce3a5b",
    "exports/web_fggcm": "933bc53734c4bf3298adbeac0cbe09207eff1b59a9231f214edae76876994210",

    # md5 of everything scripts/reproduce_tables.py prints at its default
    # horizons: a refactor of the criteria or the engines that moves any
    # number fails here.
    "reproduce_tables/stdout": "7bf10426bb7ed6cdf490146c90bd573a",

    # `exp_fingerprint()`: the libm's `exp` that every pin above was taken
    # with (glibc 2.36's).
    "libm/exp": "1fc0fb9aaf2f4061",
}


def md5(data: bytes) -> str:
    """md5 of a program's output: a written file's bytes or printed text."""
    return hashlib.md5(data).hexdigest()


def sha256(text: str) -> str:
    """sha256 of an exported document's UTF-8 text."""
    return hashlib.sha256(text.encode()).hexdigest()


def trajectory_digest(traj) -> str:
    """sha256 over the little-endian double bits of every recorded field."""
    h = hashlib.sha256()
    for state in traj.states:
        for cell in state:
            for v in cell_fields(traj.family, cell):
                h.update(struct.pack("<d", v))
    return h.hexdigest()


def exp_fingerprint() -> str:
    """The first 16 hex digits of the sha256 over the little-endian double
    bits of `math.exp(x)` then `math.exp(-x)` for x = 40k/10,000, k = 1 to
    10,000: a libm that rounds one of those 20,000 results otherwise moves
    it. `math.exp` is looked up at the call, so a patched one is taken."""
    xs = [40.0 * k / 10_000 for k in range(1, 10_001)]
    values = [v for x in xs for v in (math.exp(x), math.exp(-x))]
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()[:16]


def libm_verdict() -> str:
    """Whether this `exp` is the one the pins were taken with."""
    got, want = exp_fingerprint(), GOLDEN["libm/exp"]
    if got == want:
        return f"exp fingerprint {got} matches the pinned one, so the code moved them"
    return f"exp fingerprint {got} is not the pinned {want}, so the libm may have moved them"


def check(got, output=""):
    """Each {pin name: digest} in got must be its `GOLDEN` digest. The
    message names the libc and says whether its `exp` has the pinned
    fingerprint, prints each moved pin as a `GOLDEN` line, then output,
    the text the digests were taken of, if given."""
    want = {name: GOLDEN.get(name, "no such pin") for name in got}
    moved = "".join(f'\n    "{name}": ' + (f'"{digest}",' if digest else "None,")
                    for name, digest in got.items() if digest != want[name])
    assert got == want, (f"pins moved on {platform.libc_ver()} ({libm_verdict()}):"
                         f"{moved}\n{output}")
