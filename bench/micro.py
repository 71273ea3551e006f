"""Isolated layer micro-benchmarks: one public call per timed loop.

Each benchmark builds its input once from ``random.Random(seed)``, calls
only names exported in a package's ``__all__`` (or public methods of
exported classes), is calibrated so a batch lasts a fifth of the time
allowed per metric, and reports the median of five batches as operations
per second.  The figure includes the loop's own cost (one Python call
per operation, about 50 ns), which is the same on both sides of any
comparison.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
import traceback

from repro.attack import SpoofingAttacker, random_source
from repro.dns import AnsSimulator, AuthoritativeServer, StreamFramer, Zone, frame
from repro.dnswire import (
    Message,
    Name,
    a_record,
    attach_cookie,
    extract_cookie,
    make_query,
    make_response,
    ns_record,
    soa_record,
    strip_cookie,
)
from repro.guard.core import (
    CookieFactory,
    EdnsCookieServer,
    RateEstimator,
    TokenBucket,
    UnverifiedResponseLimiter,
    VerifiedRequestLimiter,
    decode_cookie_name,
    encode_cookie_name,
    fabricated_referral,
    random_key,
)
from repro.netsim import Cpu, Hook, Link, Node, Simulator, Verdict
from repro.obs import Observability, installed

#: Batches per metric; the median batch is reported.
BATCHES = 5

#: Seconds per metric (all batches together) in a full run.
SECONDS_PER_METRIC = 0.5

#: Address range of a fabricated COOKIE2 subnet (a /24 minus network/broadcast).
_HOST_RANGE = 254

_ORIGIN = Name.from_text("foo.com.")
_QNAME = "www.foo.com"

_REGISTRY: dict[str, object] = {}


def micro(name: str, per_op: int = 1, unit: str = "ops_per_s"):
    """Register ``factory(rng) -> op`` as the metric ``<name>.<unit>``."""

    def register(factory):
        _REGISTRY[f"{name}.{unit}"] = (factory, per_op)
        return factory

    return register


def _noop(*args) -> None:
    pass


def _sources(rng, count: int):
    return itertools.cycle([random_source(rng) for _ in range(count)])


def _clock(step: float):
    """Monotonic fake ``now`` values, ``step`` apart."""
    return map(step.__mul__, itertools.count(1))


def _query(rng) -> Message:
    return make_query(_QNAME, msg_id=rng.getrandbits(16))


def _referral(rng) -> Message:
    response = make_response(_query(rng))
    response.authorities.append(ns_record("com", "ns1.com"))
    response.additionals.append(a_record("ns1.com", "198.51.100.53"))
    return response


def _cookie_query(rng) -> Message:
    return attach_cookie(_query(rng), rng.randbytes(16))


# -- dnswire ---------------------------------------------------------------------


def _decoder(build):
    def factory(rng):
        wire = build(rng).encode()
        return lambda: Message.decode(wire)

    return factory


def _encoder(build):
    def factory(rng):
        return build(rng).encode  # unfrozen: every call re-encodes

    return factory


micro("dnswire.decode_query")(_decoder(_query))
micro("dnswire.decode_referral")(_decoder(_referral))
micro("dnswire.decode_cookie_txt")(_decoder(_cookie_query))
micro("dnswire.encode_query")(_encoder(_query))
micro("dnswire.encode_referral")(_encoder(_referral))
micro("dnswire.encode_cookie_txt")(_encoder(_cookie_query))


@micro("dnswire.encode_memo")
def _encode_memo(rng):
    return _referral(rng).freeze().encode


@micro("dnswire.cookie_ext_roundtrip")
def _cookie_ext_roundtrip(rng):
    message = _query(rng)
    cookie = rng.randbytes(16)

    def op():
        attach_cookie(message, cookie)
        extract_cookie(message)
        strip_cookie(message)

    return op


@micro("dnswire.name_from_text")
def _name_from_text(rng):
    # twice the intern table's capacity of distinct names, so every call parses
    texts = itertools.cycle([f"h{rng.getrandbits(40):x}.foo.com" for _ in range(8192)])
    return lambda: Name.from_text(next(texts))


# -- guard.core ------------------------------------------------------------------


def _factory(rng) -> CookieFactory:
    """A cookie factory one rotation old, so a previous key exists."""
    cookies = CookieFactory(random_key(rng))
    cookies.rotate(random_key(rng))
    return cookies


@micro("guard.core.cookie_mint")
def _cookie_mint(rng):
    cookies, sources = _factory(rng), _sources(rng, 1024)
    return lambda: cookies.cookie(next(sources))


@micro("guard.core.cookie_verify_ok")
def _cookie_verify_ok(rng):
    cookies = _factory(rng)
    pairs = [(cookies.cookie(ip), ip) for ip in (random_source(rng) for _ in range(1024))]
    held = itertools.cycle(pairs)
    return lambda: cookies.verify(*next(held))


@micro("guard.core.cookie_verify_bad")
def _cookie_verify_bad(rng):
    # random cookies: the generation bit picks the current or the previous key
    cookies = _factory(rng)
    forged = itertools.cycle(
        [(rng.randbytes(16), random_source(rng)) for _ in range(1024)]
    )
    return lambda: cookies.verify(*next(forged))


@micro("guard.core.label_mint")
def _label_mint(rng):
    cookies, sources = _factory(rng), _sources(rng, 1024)
    return lambda: cookies.label_cookie(next(sources))


@micro("guard.core.label_verify")
def _label_verify(rng):
    cookies = _factory(rng)
    pairs = [
        (cookies.label_cookie(ip), ip) for ip in (random_source(rng) for _ in range(1024))
    ]
    held = itertools.cycle(pairs)
    return lambda: cookies.verify_label(*next(held))


@micro("guard.core.ip_cookie_verify")
def _ip_cookie_verify(rng):
    cookies = _factory(rng)
    pairs = [
        (cookies.ip_cookie(ip, _HOST_RANGE), ip, _HOST_RANGE)
        for ip in (random_source(rng) for _ in range(1024))
    ]
    held = itertools.cycle(pairs)
    return lambda: cookies.verify_ip_cookie(*next(held))


@micro("guard.core.cookie_name_codec")
def _cookie_name_codec(rng):
    label = _factory(rng).label_cookie(random_source(rng))
    qname = Name.from_text(_QNAME)

    def op():
        decode_cookie_name(encode_cookie_name(label, qname, _ORIGIN), _ORIGIN)

    return op


@micro("guard.core.fabricated_referral")
def _fabricated_referral(rng):
    label = _factory(rng).label_cookie(random_source(rng))
    query = _query(rng)
    return lambda: fabricated_referral(query, _ORIGIN, label)


def _open_rl1() -> UnverifiedResponseLimiter:
    return UnverifiedResponseLimiter(per_source_rate=1e9, per_source_burst=1e9)


@micro("guard.core.rl1_allow_hot")
def _rl1_allow_hot(rng):
    limiter, sources, now = _open_rl1(), _sources(rng, 64), _clock(4e-6)
    return lambda: limiter.allow(next(sources), next(now))


@micro("guard.core.rl1_allow_churn")
def _rl1_allow_churn(rng):
    # a fresh source per call against a tracker that is already full: the
    # spoofed-flood steady state, where every observation evicts a counter
    limiter, sources, now = _open_rl1(), _sources(rng, 1 << 15), _clock(7e-5)
    for _ in range(limiter.tracker.capacity):
        limiter.allow(next(sources), next(now))
    return lambda: limiter.allow(next(sources), next(now))


@micro("guard.core.rl2_allow")
def _rl2_allow(rng):
    limiter = VerifiedRequestLimiter(per_host_rate=1e9, per_host_burst=1e9)
    sources, now = _sources(rng, 64), _clock(4e-6)
    return lambda: limiter.allow(next(sources), next(now))


@micro("guard.core.token_bucket")
def _token_bucket(rng):
    bucket, now = TokenBucket(1e6, 1e6), _clock(4e-6)
    return lambda: bucket.consume(next(now))


@micro("guard.core.rate_estimator")
def _rate_estimator(rng):
    estimator, now = RateEstimator(), _clock(4e-6)
    return lambda: estimator.observe(next(now))


@micro("guard.core.edns_cookie_verify")
def _edns_cookie_verify(rng):
    server = EdnsCookieServer(rng.randbytes(16))
    triples = []
    for _ in range(1024):
        client, ip = rng.randbytes(8), random_source(rng)
        triples.append((client, server.server_cookie(client, ip), ip))
    held = itertools.cycle(triples)
    return lambda: server.verify(*next(held))


# -- netsim ----------------------------------------------------------------------


def _push_pop(depth: int):
    def factory(rng):
        sim = Simulator(seed=rng.getrandbits(32))
        horizon = depth * 1e-5
        for _ in range(depth):
            sim.schedule(rng.uniform(0.0, horizon), _noop)
        delays = itertools.cycle([rng.uniform(0.0, horizon) for _ in range(4096)])

        def op():
            sim.schedule(next(delays), _noop)
            sim.step()

        return op

    return factory


micro("netsim.simulator.push_pop_d10")(_push_pop(10))
micro("netsim.simulator.push_pop_d10k")(_push_pop(10_000))


@micro("netsim.simulator.cancel_churn")
def _cancel_churn(rng):
    # the retry-timer pattern: arm a 2 s timer, the reply arrives, disarm it
    sim = Simulator(seed=rng.getrandbits(32))

    def op():
        timer = sim.schedule(2.0, _noop)
        sim.schedule(0.0004, _noop)
        sim.step()
        timer.cancel()

    return op


@micro("netsim.cpu.submit")
def _cpu_submit(rng):
    sim = Simulator(seed=rng.getrandbits(32))
    cpu = Cpu(sim)

    def op():
        cpu.submit(1e-6, _noop)
        sim.step()

    return op


def _pair(rng):
    """Two hosts joined by one link."""
    sim = Simulator(seed=rng.getrandbits(32))
    a, b = Node(sim, "a"), Node(sim, "b")
    a.add_address("10.0.0.1")
    b.add_address("10.0.0.2")
    Link(sim, a, b)
    return sim, a, b


def _udp_hop(filtered: bool):
    def factory(rng):
        sim, a, b = _pair(rng)
        if filtered:
            b.filters.append(Hook.PREROUTING, lambda packet: True, Verdict.ACCEPT)
        b.udp.bind(53, _noop)
        socket = a.udp.bind_ephemeral(_noop)
        query, dst = _query(rng), b.address
        size = query.wire_size()

        def op():
            socket.send(query, dst, 53, size=size)
            sim.step()

        return op

    return factory


micro("netsim.udp_hop", unit="pkts_per_s")(_udp_hop(False))
micro("netsim.udp_hop_filtered", unit="pkts_per_s")(_udp_hop(True))


@micro("netsim.tcp.exchange")
def _tcp_exchange(rng):
    sim, a, b = _pair(rng)
    query = _query(rng)
    request, reply = frame(query), frame(make_response(query))
    answered = [0]

    def serve(conn):
        def on_data(c, data):
            if data:
                c.send(reply)
            else:
                c.close()

        conn.on_data = on_data

    def on_reply(c, data):
        if data:
            answered[0] += 1
            c.close()

    b.tcp.listen(53, serve)
    dst = b.address

    def op():
        before = answered[0]
        a.tcp.connect(dst, 53, on_established=lambda c: c.send(request), on_data=on_reply)
        # past TIME_WAIT, so the lingering-connection table stays empty
        sim.run(until=sim.now + 2.0)
        if answered[0] != before + 1:
            raise RuntimeError("TCP exchange did not complete")

    return op


# -- dns, attack -----------------------------------------------------------------


@micro("dns.ans_respond")
def _ans_respond(rng):
    ans = AnsSimulator(Node(Simulator(seed=rng.getrandbits(32)), "ans"))
    query = _query(rng)
    return lambda: ans.respond(query)


@micro("dns.authoritative_answer")
def _authoritative_answer(rng):
    zone = Zone("foo.com")
    zone.add(soa_record(zone.origin))
    zone.add_a(_QNAME, "198.51.100.80")
    server = AuthoritativeServer(
        Node(Simulator(seed=rng.getrandbits(32)), "ans"), [zone], answer_ttl_override=0
    )
    query = _query(rng)
    return lambda: server.respond(query)


@micro("dns.framing_roundtrip")
def _framing_roundtrip(rng):
    message, framer = _referral(rng), StreamFramer()
    return lambda: framer.feed(frame(message))


_EMIT_RATE = 250_000
_EMIT_SLICE = 0.001


@micro("attack.emit", per_op=int(_EMIT_RATE * _EMIT_SLICE), unit="pkts_per_s")
def _attack_emit(rng):
    # one op = one simulated millisecond of the 250K req/s flood into a host
    # that owns the target address but has nothing bound: generator + one hop
    sim, a, b = _pair(rng)
    SpoofingAttacker(a, b.address, rate=_EMIT_RATE, carry_invalid_cookie=True).start()
    return lambda: sim.run(until=sim.now + _EMIT_SLICE)


# -- harness ---------------------------------------------------------------------


def _time_batch(op, count: int) -> float:
    t0 = time.perf_counter()
    for _ in itertools.repeat(None, count):
        op()
    return time.perf_counter() - t0


def ops_per_second(op, seconds: float) -> float:
    """Median rate of ``op`` over :data:`BATCHES` batches filling ``seconds``."""
    target = seconds / BATCHES
    count, elapsed = 1, _time_batch(op, 1)
    while elapsed < target / 8 and count < 1 << 24:
        count *= 2
        elapsed = _time_batch(op, count)
    count = max(1, int(count * target / elapsed))
    return count / statistics.median(_time_batch(op, count) for _ in range(BATCHES))


def obs_overhead_ratio(scenario_run, pairs: int = 3) -> float:
    """Median installed/bare wall ratio over alternating pairs.

    ``scenario_run()`` builds and runs one short guarded flood; the
    installed side runs it under a span-capped ``Observability``, the
    repo's existing <=1.05 observe-only contract.
    """

    def timed(observed: bool) -> float:
        t0 = time.perf_counter()
        if observed:
            with installed(Observability(max_spans=1000)):
                scenario_run()
        else:
            scenario_run()
        return time.perf_counter() - t0

    ratios = []
    for index in range(pairs):
        if index % 2:
            observed, bare = timed(True), timed(False)
        else:
            bare, observed = timed(False), timed(True)
        ratios.append(observed / bare)
    return statistics.median(ratios)


NAMES = (*_REGISTRY, "obs.overhead_ratio")


def run_all(seed: int, seconds: float, scenario_run) -> tuple[dict[str, float], list[str]]:
    """Every micro-benchmark: ``(metric -> value, failure messages)``."""
    values: dict[str, float] = {}
    failures: list[str] = []
    for name, (factory, per_op) in _REGISTRY.items():
        try:
            op = factory(random.Random(seed))
            values[name] = per_op * ops_per_second(op, seconds)
        except Exception as error:  # one broken benchmark must not hide the rest
            traceback.print_exc()
            failures.append(f"{name}: {error!r}")
            values[name] = 0.0
    try:
        values["obs.overhead_ratio"] = obs_overhead_ratio(scenario_run)
    except Exception as error:
        traceback.print_exc()
        failures.append(f"obs.overhead_ratio: {error!r}")
        values["obs.overhead_ratio"] = 0.0
    return values, failures
