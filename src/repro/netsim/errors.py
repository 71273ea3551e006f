"""Exceptions raised by the network simulator."""

from __future__ import annotations


class NetsimError(Exception):
    """Base class for simulator errors."""


class AddressError(NetsimError):
    """Bad address, port, or subnet configuration."""


class RoutingError(NetsimError):
    """A packet had no route to its destination.  ``Node.send`` raises it as
    ``RoutingError(node_name, dst)``, mostly to be caught and counted (replies
    to spoofed sources), so the text is built only when it is shown."""

    def __str__(self) -> str:
        if len(self.args) == 2:
            from .address import format_address

            name, dst = self.args
            return f"{name}: no route to {format_address(dst)}"
        return super().__str__()


class SocketError(NetsimError):
    """Bad socket usage (port already bound, send on closed socket, ...)."""


class ConnectionError_(NetsimError):
    """TCP connection failure (reset, retransmission limit, ...)."""
