"""The DNS guard: cookie-based spoof detection for DNS servers.

The package implements the paper's three schemes behind one inline
middlebox (:class:`RemoteDnsGuard`) plus the LRS-side
:class:`LocalDnsGuard` that makes unmodified resolvers cookie-capable.

The decision logic — cookie generate/verify, the NS-label codec, the
RFC 7873 computations, rate-limit accounting, admission policy and the
LRS hold/stamp/probe state machine — lives in the transport-free
:mod:`repro.guard.core` subpackage; the modules here are the simulator
adapters around it.  The layering analysis
(``python -m repro.analysis --layers``) enforces the split.
"""

from . import core
from .core import (
    FABRICATED_NS_TTL,
    KEY_LENGTH,
    LABEL_COOKIE_LENGTH,
    LABEL_PREFIX,
    CookieFactory,
    CookieName,
    RateEstimator,
    TokenBucket,
    TopRequesterTracker,
    UnverifiedResponseLimiter,
    VerifiedRequestLimiter,
    cookie_name_answer,
    decode_cookie_name,
    delegation_owner,
    encode_cookie_name,
    fabricated_referral,
    random_key,
)
from .costs import GuardCosts
from .local_guard import DEFAULT_COOKIE_TTL, LocalDnsGuard
from .pipeline import AdmissionControl, RemoteDnsGuard
from .rfc7873 import (
    EdnsCookieClientShim,
    EdnsCookieGuard,
    EdnsCookieServer,
    attach_edns_cookie,
    extract_edns_cookie,
    strip_edns_cookie,
)
from .tcp_scheme import TcpProxy

__layer__ = "adapter"

__all__ = [
    "AdmissionControl",
    "core",
    "CookieFactory",
    "CookieName",
    "DEFAULT_COOKIE_TTL",
    "EdnsCookieClientShim",
    "EdnsCookieGuard",
    "EdnsCookieServer",
    "FABRICATED_NS_TTL",
    "GuardCosts",
    "KEY_LENGTH",
    "LABEL_COOKIE_LENGTH",
    "LABEL_PREFIX",
    "LocalDnsGuard",
    "RateEstimator",
    "RemoteDnsGuard",
    "TcpProxy",
    "TokenBucket",
    "TopRequesterTracker",
    "UnverifiedResponseLimiter",
    "VerifiedRequestLimiter",
    "attach_edns_cookie",
    "cookie_name_answer",
    "extract_edns_cookie",
    "strip_edns_cookie",
    "decode_cookie_name",
    "delegation_owner",
    "encode_cookie_name",
    "fabricated_referral",
    "random_key",
]
