"""Golden pins for the E-value path.

Every bit score and E-value a search prints derives from the Karlin
parameters, and those depend on the last bits of the lambda root solve
and on the exact integer scores of the calibration pairs.  These pins
freeze both: the parameters are compared with ``==``, and a small fixed
search's stdout byte for byte.  A change to the solver, the sampling
order or the calibration scorer that moves any of them fails here.
"""

import io

import pytest

from repro.alphabet import BLOSUM62, GapPenalty
from repro.cli import main
from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES as FREQ
from repro.stats import karlin_parameters

QUERY_FASTA = """\
>QUERY
RCSLRHINPRGLHLPVQKFEAVEEWLISAFGRKVDKEPFDSKMSHPTRTGINFETQLGKD
"""

DB_FASTA = """\
>PLANTED
PPLYDTNVKKVSSAGRDDTREITVFDLFAMGLMMLLDIRILSGALDPGGYGEEIRLYLPVTPSSQIEQLEKL\
RCSLRHINPRGLHLPVQKFEAVEEWLISAFGRKVDKEPFDSKMSHPTRTGINFETQLGKDRHGFRNLGMEDVCNQEDL
>D0
VRGMTVNLTALNPVLAAGTCMGQFEGPISLNHTLVAEPMLMTMLLMEMKSIALTKKGGFATTVRRWGQGKNIKFASHHLQTDLNKWTRKW
>D1
DGFPIKMEKLFLEHYDNATVCQDLISDTISSYIKLDIYYA
>D2
MERNSVLGLSPADTIKSKPLDDVAFTDAGEIHVRVAVEPAHMKSNGKASGCDKACEQPLYFEERCKPEESVRAPIHKPAVVGIQLDLYISDTRDFERRSAAVSGDTSMLLVLRALPKPEG
"""

SEARCH_STDOUT = """\
# query QUERY (60 aa) vs db.fasta (4 sequences, 400 residues)
hit                         len  score    bits    E-value
PLANTED                     150    323   151.4    6.4e-42
D0                           90     22    13.6        1.9
D2                          120     18    11.8        6.7
D1                           40     14    10.0         24
# modeled on Tesla C1060: 2.36 GCUPs, 0% of time in the intra-task kernel
# scored by auto engine (batched): 1 groups of <= 64 lanes, padding efficiency 0.667
"""

UNGAPPED = (0.3172224820044583, 0.07513597238394147, 0.5564469822578179)
GAPPED_10_2 = (0.3172224820044583, 0.08440396230875856, 0.5564469822578179)


@pytest.mark.parametrize(
    "gaps, expected",
    [
        (None, UNGAPPED),
        (GapPenalty.from_open_extend(10, 2), GAPPED_10_2),
        (GapPenalty.cudasw_default(), GAPPED_10_2),
    ],
    ids=["ungapped", "open10-extend2", "cudasw-default"],
)
def test_blosum62_karlin_parameters_pinned(gaps, expected):
    params = karlin_parameters(BLOSUM62, FREQ, gaps)
    assert (params.lam, params.k, params.h) == expected
    assert params.gapped == (gaps is not None)


def test_search_stdout_pinned(tmp_path, monkeypatch):
    (tmp_path / "query.fasta").write_text(QUERY_FASTA)
    (tmp_path / "db.fasta").write_text(DB_FASTA)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert main(["search", "query.fasta", "db.fasta"], out=out) == 0
    assert out.getvalue() == SEARCH_STDOUT
