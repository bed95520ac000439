"""``transport-boundary``: no sim-transport internals outside ``sim/``.

ROADMAP item 4(a) wants the protocol core running unchanged on the
deterministic sim *and* on real asyncio sockets.  That refactor is only
possible if everything outside :mod:`repro.sim` talks to the transport
through its public surface -- the RPC layer, ``Environment.schedule``,
``Network.cut_link``/``restore_link`` -- and never reaches into
underscore internals (``env._schedule``, ``network._deliver``,
``network._endpoints``).  Every such reach is a coupling a future
transport backend would have to re-implement bug-for-bug; this rule
makes the boundary mechanical instead of aspirational.

The check flags any ``X._attr`` access where ``X`` is a name or
attribute whose final segment looks like a transport handle (``env``,
``environment``, ``network``, ``net``).  Dunder attributes are ignored
(they are Python protocol, not transport internals).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Rule, dotted_name

#: Identifier segments that conventionally hold the transport handles.
TRANSPORT_HANDLES = frozenset({"env", "environment", "network", "net"})


class TransportBoundaryRule(Rule):
    id = "transport-boundary"
    rationale = ("modules outside sim/ must use the public transport "
                 "API (RPC layer, Environment.schedule, Network link "
                 "controls), never underscore internals -- the seam "
                 "ROADMAP item 4(a)'s real-socket backend plugs into")
    exclude = ("sim/*",)

    def check(self, tree: ast.Module, source: str,
              relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name):
                segment = receiver.id
            elif isinstance(receiver, ast.Attribute):
                segment = receiver.attr
            else:
                continue
            if segment not in TRANSPORT_HANDLES:
                continue
            handle = dotted_name(receiver) or segment
            yield self.finding(
                relpath, node,
                f"`{handle}.{attr}` reaches into sim transport "
                f"internals; use the public API (e.g. "
                f"Environment.schedule, the RPC layer) so the "
                f"transport stays swappable")
