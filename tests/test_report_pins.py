"""Whole verify reports pinned by digest: every check name, detail,
witness and rate of verify_scheme, or the error it raises, on graphs
that reach each privacy tier, the auto fallback and the refusals; and
the statistical tier's sample stream itself, whose verdicts read TV 0
or 1.0 on every pinned report, so a changed stream would pass them."""
import functools
import hashlib
import json
from collections import Counter

import pytest

from graphpir.graphs import parse_graph
from graphpir.mutants import compose_stars_no_decoy, compose_stars_theta_ordered
from graphpir.rng import SeededSource, record_shape
from graphpir.runner import all_thetas, resolve_scheme
from graphpir.verify import DEFAULT_SAMPLES, _seed_for, verify_scheme
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


# graph: {theta: SHA-256 of the repr of the sorted Counter of theta's
# DEFAULT_SAMPLES "stat" points of compose-stars, drawn as the
# statistical tier draws them}
STREAM_PINS = {
    "complete_bipartite:2,3": {  # one choice of 3 per point
        "1.1": "aac14fdc9528e19c43789ef703eecacb4986a4a218ec3e9482d2907e034bf743",
        "2.1": "56adce2e942485231b2a62d25660f70ba289364eb76650428401d1d4ce54f50b",
        "3.1": "79973d86c21d459f206364173328c74f5e5461259dede7a5e443632dfdef02f4",
        "4.1": "c72741af480728dd1274221655bd3d73b3f816eef20de987ebddeb2823cd5dc0",
        "5.1": "078f351267ed35eae67596965a76bc4133b8c5b5cf8b80283e2c5fd59236e2ff",
        "6.1": "b5bd5639032a497feb1e9d248455235e0190a07cc052fa2264b11150f78267e3",
    },
    "complete_bipartite:3,4": {  # two choices of 4 per point
        "1.1": "b1ff245bc505b0dd44fbfcc11f8ffd484005beadd79a9f6398cff52c325070db",
        "2.1": "48338ccb7049d3145ac7a81749eff7c1fcc598f23e542eb735f97ce1f05918a5",
        "3.1": "af561a59da6849ab46806007a38e1aea81a7a6943e0bb4028a896ff4b5c5fb51",
        "4.1": "1d77922e581b4956003494f81ca07a06ad8b86ef655b144644ee531943ba2094",
        "5.1": "04baecb799accefcb74696da35e557a9cd371ad5c8529c6971b5e7fe01687d0e",
        "6.1": "634884f28ab4d0b9d98e497c3482766a9d22abed5771f397edfc065da82dd679",
        "7.1": "95cc46209f04db692fa303983127efe0b901b9984fc54a759fedd90745490801",
        "8.1": "d650bf4efed1d6e94c358acb053ac64db9644211c2369d4aaaf082320f6f670a",
        "9.1": "3fbad49ab84ae30c19d224b0e49a069e2e5ec5e52459f41beeecfcab44b8cf1c",
        "10.1": "2e1bc7e21efe81d57b4f8192d1ffa97fc3a79bff26166526982c749b651f79eb",
        "11.1": "55a86323f409cc38a52566db497c69b94912f074aed2744267046205866c17e3",
        "12.1": "e1fbff455d110e3f56c5380a3bafe63801b0b24d596bf1e66b420ee7ffb47c04",
    },
}


@pytest.mark.parametrize("graph", sorted(STREAM_PINS))
def test_statistical_stream_is_pinned(graph):
    g = parse_graph(graph)
    _, run = resolve_scheme("compose-stars", g)
    digests, counted = {}, {}
    for theta in all_thetas(g):
        shape, _ = record_shape(functools.partial(run, g, theta, identity_perms=True))
        src = SeededSource(_seed_for(0, theta, "stat"))
        tally = Counter(src.point(shape) for _ in range(DEFAULT_SAMPLES))
        counts = SeededSource(_seed_for(0, theta, "stat")).counts(shape, DEFAULT_SAMPLES)
        for out, c in ((digests, tally), (counted, counts)):
            out["%d.%d" % (theta.edge, theta.copy)] = hashlib.sha256(
                repr(sorted(c.items())).encode()).hexdigest()
    assert digests == STREAM_PINS[graph]
    assert counted == STREAM_PINS[graph]
