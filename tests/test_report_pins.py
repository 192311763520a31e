"""Whole verify reports pinned by digest: every check name, detail,
witness and rate of verify_scheme, or the error it raises, on graphs
that reach each privacy tier, the auto fallback and the refusals."""
import hashlib
import json

import pytest

from graphpir.graphs import parse_graph
from graphpir.mutants import compose_stars_no_decoy, compose_stars_theta_ordered
from graphpir.verify import verify_scheme
from test_verify import compose_stars_drop_request

STATISTICAL = {"privacy": "statistical", "samples": 10_000}

# (scheme, graph, verify_scheme arguments, SHA-256 of the report's JSON
# or of "ErrorType: message")
PINS = [
    ("auto", "path:12", {},
     "e37d0f8ce2cd08bea5f8433bd729c11da074557e2455c3fb391719a2d84d432c"),
    ("auto", "complete_bipartite:2,4", {},
     "e26b994a510503b5d29462c9a16db5f81434957a215f8573eda6a3b6deb47dd2"),
    ("auto", "complete:5", {},
     "6728aeafbac5c9f4664fec8a062ecb52cfc049f1b52d167b9bf53fc614242d9c"),
    ("auto", "complete:3^2", {},
     "4ffefce6307841f0efe5d97b99b8491ca44cd9993b324a22822385c58d476a42"),
    ("auto", "path:4^3", {},
     "f58f68d293aca9623be1d7ad289fc3f0fdecebd6e6bd8ba67a840783df658f29"),
    ("compose-stars", "complete_bipartite:2,3", STATISTICAL,
     "f908afcf9b9afe64c767171cac1470aa8023846282bba1df709a70d8f38c8bdc"),
    (compose_stars_theta_ordered, "complete_bipartite:2,3", {},
     "47da05e15455bf31fb6dcb338e92438b744d2bbb435b18fb232c15e677908ce3"),
    (compose_stars_no_decoy, "complete_bipartite:2,3", {},
     "38d78ba876af7d85288afccd739fff08292dd3f9cccadaffbf658a7b36e60326"),
    (compose_stars_drop_request, "complete_bipartite:2,3", {},
     "d8ed3148e055a7c02011151114ebefbc99476a53ccefac2ceb1aad61893926c2"),
    # refused: complete:5's own draws pass the exact budget
    ("auto", "complete:5", {"privacy": "exact"},
     "c52578fc110459e113950e5b0bd4f9e2871c2826aa47b1cc863757e187474607"),
]


@pytest.mark.parametrize(
    "scheme,graph,kwargs,digest", PINS,
    ids=["%s-%s-%s" % (getattr(s, "__name__", s), g, kw.get("privacy", "auto"))
         for s, g, kw, _ in PINS],
)
def test_verify_report_is_pinned(scheme, graph, kwargs, digest):
    try:
        text = json.dumps(verify_scheme(scheme, parse_graph(graph), **kwargs).to_dict(),
                          sort_keys=True, default=str)
    except Exception as exc:
        text = "%s: %s" % (type(exc).__name__, exc)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
