"""Private information retrieval over graph-replicated storage:
schemes, verification, and capacity bounds."""

from .core import (
    FileId,
    Transcript,
    answer_bit,
    decode,
    dump_transcript,
    measured_rate,
    srp_attribution,
    symbolic_decode_check,
)
from .graphs import GraphSpec, build_family, parse_graph
from .lift import build_block_plan, lift_scheme
from .schemes import compose, compose_stars
from .bounds import bound_report, tightness_check
from .verify import verify_scheme

__all__ = [
    "FileId",
    "GraphSpec",
    "Transcript",
    "answer_bit",
    "bound_report",
    "build_block_plan",
    "build_family",
    "compose",
    "compose_stars",
    "decode",
    "dump_transcript",
    "lift_scheme",
    "measured_rate",
    "parse_graph",
    "srp_attribution",
    "symbolic_decode_check",
    "tightness_check",
    "verify_scheme",
]
