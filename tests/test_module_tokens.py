"""Every module of the package stays under 4,096 tokens.

Without cached bytecode (a fresh checkout, or PYTHONDONTWRITEBYTECODE), a
process compiles the package from source, and CPython 3.11's parser doubles
its token array once a module passes 4,096 tokens. That costs ~0.23 MB of
resident memory, which the benchmark's peak_rss_mb counts on every workload,
more than its 0.1 MB bound. A module near the line is split, as the sphere
model's quadrature frames (where the nodes go and what they weigh) were
split out of ontomodel into frames.

Tokens are counted with tokenize, leaving out COMMENT, NL and ENCODING
tokens, which the parser never stores.
"""

import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "epioverlap").glob("*.py"))
TOKEN_LIMIT = 4096
UNSTORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def token_count(source: bytes) -> int:
    return sum(1 for tok in tokenize.tokenize(io.BytesIO(source).readline)
               if tok.type not in UNSTORED)


def test_counter_skips_comments_and_blank_lines():
    assert token_count(b"x = 1\n") == 5  # NAME OP NUMBER NEWLINE ENDMARKER
    assert token_count(b"# note\n\nx = 1  # set x\n\n") == 5


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_under_token_limit(path):
    count = token_count(path.read_bytes())
    assert count < TOKEN_LIMIT, (
        f"{path.name} has {count} tokens, at or past the parser's {TOKEN_LIMIT}")
