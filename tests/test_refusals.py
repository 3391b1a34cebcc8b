"""Input refusals: each decoder, parser, parameter record and helper raises
ValueError, with its own message, on an input outside its contract, before
it decodes or computes anything."""
import json

import pytest

from burstcodes.classic import induced_decode, tenengolts_decode
from burstcodes.perm import (
    PermCodeParams,
    lex_rank,
    overlap_ranks,
    pleqt_decode,
    reconstruct,
)
from burstcodes.pll2burst import (
    C2BParams,
    PBoundedParams,
    c2b_decode,
    pbounded_decode,
    pll_decode,
)
from burstcodes.seqcore import burst_ball_size, ceil_log2, deletion_ball, from_matrix
from burstcodes.tburst import (
    SUMS_SHAPE,
    CtbParams,
    DensityParams,
    _ball,
    compress_g,
    ctb_decode,
    decompress_g,
    dense_decode,
)
from burstcodes.verify import SCHEMA_VERSION, Codebook, redundancy_table

DP = DensityParams(128, 1, 64)
SPEC = {"family": "vt", "n": 4, "q": 2, "t": 1}


def _book(spec) -> str:
    """A codebook's JSON, valid but for its spec."""
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "spec": spec, "words": [], "redundancy_bits": 0}
    )


REFUSALS = {
    # a burst of 3 against codes for at most 2 (the labeler is not reached)
    "ctb-burst": (
        lambda: ctb_decode((0,) * 13, CtbParams(16, 4, 2, 6, 8, 0, 0, (SUMS_SHAPE,) * 2), None),
        "burst longer than t",
    ),
    "perm-burst": (
        lambda: pleqt_decode((1, 2, 3, 4, 5), PermCodeParams(8, 2, 8, 6, 0, 0, SUMS_SHAPE), None),
        "burst longer than t",
    ),
    "c2b-length": (
        lambda: c2b_decode((0,) * 13, C2BParams(16, 4, 0, ((0, 0),))),
        "burst of <= 2 deletions",
    ),
    "pbounded-length": (
        lambda: pbounded_decode((0,) * 13, PBoundedParams(16, 6, 0, 0), 1),
        "burst of <= 2 deletions",
    ),
    "tenengolts-length": (
        lambda: tenengolts_decode((0,) * 6, 0, 0, 8, 3),
        "expects length n-1",
    ),
    "induced-length": (
        lambda: induced_decode((0,) * 7, 0, 0, 0, 8, 3),
        "expects length n-2",
    ),
    "pll-length": (lambda: pll_decode((0,) * 16, 16), "expects length n\\+2"),
    "dense-length": (lambda: dense_decode((0,) * 128, DP), "expects length n\\+4t"),
    "compress-length": (lambda: compress_g((0,) * 63, DP), "expects length delta"),
    "decompress-length": (
        lambda: decompress_g((0,) * (DP.out_len + 1), DP),
        "expects out_len bits",
    ),
    "compress-capacity": (
        lambda: compress_g((0,) * 8, DensityParams(16, 1, 8)),
        "compressed length would be non-positive",
    ),
    "deletion-ball-n": (lambda: deletion_ball((0,) * 33, 1), "refuses n > 32"),
    "ceil-log2": (lambda: ceil_log2(0), "n must be >= 1"),
    # no word of q <= 2^16 symbols has more rows; its lanes hold 16 bits
    "matrix-rows": (lambda: from_matrix(((0,),) * 17, 2), "^more than 16 rows$"),
    "ball-size-t": (
        lambda: burst_ball_size((0, 1, 0), 2),
        "formula requires t >= 1 and t \\| n",
    ),
    "c2b-odd-q": (lambda: C2BParams(12, 3, 0, ()), "require q even"),
    "c2b-a": (lambda: C2BParams(12, 4, 24, ((0, 0),)), "require a in \\[0, 2n\\)"),
    "ranks-n": (lambda: overlap_ranks((1, 2), 2), "need n > t"),
    "ranks-distinct": (
        lambda: overlap_ranks((1, 2, 2), 1),
        "overlap_ranks requires distinct entries",
    ),
    "reconstruct-n": (lambda: reconstruct((1,), (2,), (), 2), "need n > t"),
    "lex-rank": (lambda: lex_rank((1, 1)), "not a permutation of \\[n\\]"),
    "table-q": (
        lambda: redundancy_table(["vt"], [8], q=1),
        "table requires q >= 2 and every n >= 1",
    ),
    "ball-t": (lambda: _ball(4, 5, "burst"), "require 1 <= t <= k"),
    "ball-model": (lambda: _ball(4, 1, "substitution"), "unknown error model"),
    "book-spec": (lambda: Codebook.from_json(_book([])), "spec is not a JSON object"),
    "book-family": (
        lambda: Codebook.from_json(_book({**SPEC, "family": 3})),
        "spec.family must be a string",
    ),
    "book-n": (
        lambda: Codebook.from_json(_book({**SPEC, "n": 4.0})),
        "spec.n must be an integer",
    ),
    "book-params": (
        lambda: Codebook.from_json(_book({**SPEC, "params": []})),
        "spec.params is not a JSON object",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_input_is_refused(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
