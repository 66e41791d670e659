"""Observe the engine's slow path from outside: every full assembly
enters zone data through ``Zone.cname_chain``, so a response that
records no walk was served from a plan or a negative skeleton."""


def zone_walks(zone) -> list:
    """Start recording ``zone``'s ``cname_chain`` calls; returns the
    live list of ``(qname, qtype)`` walked."""
    walks: list = []
    original = zone.cname_chain

    def spy(qname, qtype, *args, **kwargs):
        walks.append((qname, qtype))
        return original(qname, qtype, *args, **kwargs)

    zone.cname_chain = spy
    return walks
