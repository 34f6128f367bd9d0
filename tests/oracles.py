"""Brute-force references for the questions the library answers: which
chains a certificate has, whether a chain is usable, which certificates
form cross-sign groups, and whether a chain makes its leaf trusted in a
store at an instant.

Each is the plainest computation of its answer, by linear scans over
plain record fields. None reads the library's index, enumeration,
revocation lookup or store lookup; the trusted-at reference shares only
`rule_blocks_path`, the one distrust predicate, with the library.
"""

from xsign.certmodel import dns_identities
from xsign.truststore import rule_blocks_path


def chains(cert, records, anchors, max_depth=64):
    """Every name-matching chain (records, leaf first) from `cert` to a
    terminal record (self-signed or in `anchors`), found by a DFS with a
    linear parent scan over `records` and a key-digest cycle guard, and
    whether the depth bound cut off a further parent."""
    found = []
    truncated = False

    def dfs(chain, spkis):
        nonlocal truncated
        cur = chain[-1]
        if cur.self_signed or cur.fingerprint in anchors:
            found.append(tuple(chain))
        parents = [p for p in records
                   if p.subject == cur.issuer and p.spki_digest not in spkis]
        if parents and len(chain) >= max_depth:
            truncated = True
            return
        for parent in parents:
            dfs(chain + [parent], spkis | {parent.spki_digest})

    dfs([cert], {cert.spki_digest})
    return found, truncated


def _within(identity, subtree):
    return identity == subtree or identity.endswith("." + subtree)


def usable(chain, strict=False):
    """RFC 5280 path checks over a chain of records, leaf first: a common
    validity window, CA-capable issuers, no exceeded path length (counting
    the non-self-issued intermediates below each CA), and no DNS name below
    a CA outside its permitted or inside its excluded subtrees, for
    critical name constraints or, in strict mode, any."""
    if max(c.not_before for c in chain) >= min(c.not_after for c in chain):
        return False
    for pos, ca in enumerate(chain[1:], start=1):
        if not ca.ca_capable:
            return False
        intermediates = [c for c in chain[1:pos] if c.subject != c.issuer]
        if (ca.path_len_constraint is not None
                and len(intermediates) > ca.path_len_constraint):
            return False
        nc = ca.name_constraints
        if nc is None or not (nc.critical or strict):
            continue
        permitted = [s.value for s in nc.permitted if s.kind == "dns"]
        excluded = [s.value for s in nc.excluded if s.kind == "dns"]
        for below in chain[:pos]:
            for name in dns_identities(below):
                if permitted and not any(_within(name, p) for p in permitted):
                    return False
                if any(_within(name, e) for e in excluded):
                    return False
    return True


def groups(records, overlap_min):
    """A pairwise scan keyed by (subject, key digest) over the keys with two
    differently issued records: the keys of the cross-sign groups (such a
    pair whose validities overlap by at least `overlap_min` whole days),
    the keys of the reissuance groups (no such pair), and per key its
    qualifying pairs, each a sorted pair of fingerprints."""
    qualifying = {}
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            if a.subject != b.subject or a.spki_digest != b.spki_digest:
                continue
            if a.issuer == b.issuer:
                continue
            pairs = qualifying.setdefault((a.subject, a.spki_digest), set())
            start = max(a.not_before, b.not_before)
            end = min(a.not_after, b.not_after)
            days = max(0, int((end - start).total_seconds() // 86400)) \
                if start < end else 0
            if days >= overlap_min:
                pairs.add(tuple(sorted((a.fingerprint, b.fingerprint))))
    xs_keys = {key for key, pairs in qualifying.items() if pairs}
    return xs_keys, qualifying.keys() - xs_keys, qualifying


def revocation_instants(chain, revocations, view):
    """The effective dates of the records in `revocations` that `view`
    accepts and that match a member of `chain`, by a linear scan: computed
    once per chain and view, and passed to `trusted_at`."""
    return [rec.effective_date for member in chain for rec in revocations
            if rec.source.name in view.accepted_sources
            and rec.selector.matches(member)]


def roots_at(store, t):
    """The roots of the store's latest snapshot at or before `t`, by a
    linear scan over its snapshots."""
    roots = frozenset()
    for snap in store.snapshots:
        if snap.effective_date <= t:
            roots = snap.roots
    return roots


def trusted_at(chain, revoked, store, t, strict=False):
    """Whether the chain (records, leaf first) alone makes its leaf trusted
    in `store` at `t`: it is usable and every member is valid at `t`, its
    root is in the store's snapshot at `t`, no revocation in `revoked` (its
    `revocation_instants`) is effective at or before `t`, and no distrust
    rule of the store blocks it at `t`."""
    return (usable(chain, strict)
            and max(r.not_before for r in chain) <= t
            < min(r.not_after for r in chain)
            and chain[-1].fingerprint in roots_at(store, t)
            and not any(at <= t for at in revoked)
            and not any(rule_blocks_path(rule, chain, t)
                        for rule in store.distrust_rules))
