"""RFC 1035 DNS wire format: names, records, messages, and the cookie extension."""

from .errors import DecodeError, EncodeError, NameError_, WireError
from .header import HEADER_SIZE, Header
from .message import (
    MAX_UDP_PAYLOAD,
    PROTOTYPE_CAP,
    UNSCANNED,
    Message,
    Question,
    ResourceRecord,
    keep_prototype,
)
from .name import ROOT, Name
from .rdata import A, AAAA, CNAME, MX, NS, OPT, PTR, SOA, SRV, TXT, Opaque, Rdata
from .types import Opcode, Rcode, RRClass, RRType
from .builder import (
    a_record,
    make_query,
    make_response,
    make_truncated_response,
    ns_record,
    response_header,
    soa_record,
)
from .cookie_ext import (
    COOKIE_LENGTH,
    ZERO_COOKIE,
    attach_cookie,
    cookie_rr,
    extract_cookie,
    is_cookie_request,
    strip_cookie,
    with_cookie,
    without_cookie,
)

__layer__ = "pure-core"

__all__ = [
    "A",
    "AAAA",
    "CNAME",
    "COOKIE_LENGTH",
    "DecodeError",
    "EncodeError",
    "HEADER_SIZE",
    "Header",
    "MAX_UDP_PAYLOAD",
    "MX",
    "Message",
    "NS",
    "Name",
    "NameError_",
    "OPT",
    "Opaque",
    "Opcode",
    "PROTOTYPE_CAP",
    "PTR",
    "Question",
    "ROOT",
    "RRClass",
    "RRType",
    "Rcode",
    "Rdata",
    "ResourceRecord",
    "SOA",
    "SRV",
    "TXT",
    "UNSCANNED",
    "WireError",
    "ZERO_COOKIE",
    "a_record",
    "attach_cookie",
    "cookie_rr",
    "extract_cookie",
    "is_cookie_request",
    "keep_prototype",
    "make_query",
    "make_response",
    "make_truncated_response",
    "ns_record",
    "response_header",
    "soa_record",
    "strip_cookie",
    "with_cookie",
    "without_cookie",
]
