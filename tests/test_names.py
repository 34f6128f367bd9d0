import random
import re

from hypothesis import given
from hypothesis import strategies as st

from xsign.names import (_SHORT_TO_OID, EMPTY_NAME, NormalizedName,
                         _parse_dn_string, _split_escaped, _split_unescaped,
                         format_name, from_rdns, normalize_name,
                         normalize_value)

value_text = st.text(
    alphabet=st.sampled_from("abcXYZ019 \t-._"), min_size=1, max_size=12
).filter(lambda s: s.strip())
rdn = st.lists(st.tuples(st.sampled_from(["CN", "O", "OU", "C"]), value_text),
               min_size=1, max_size=2)
name_parts = st.lists(rdn, min_size=0, max_size=4)
dn_text = st.one_of(
    st.text(alphabet=st.sampled_from("cnCO=x1 ,+"), max_size=30),
    st.text(alphabet=st.sampled_from("cnCO=x1 ,+\\"), max_size=30),
)
# Unescaped DN text from its parts: attribute types in any case, dotted OIDs
# and unknown types; whitespace that `\s` and `str.isspace` both match
# (tab, LF, CR, U+000B, U+001C, U+0085, U+00A0, U+2003); values whose
# case-folding changes their length; empty RDNs; and AVAs without `=`.
_spaces = st.text(alphabet=st.sampled_from(" \t\n\r\x0b\x1c\x85\xa0\u2003"),
                  max_size=3)
_attr_type = st.sampled_from([
    "CN", "cn", "Cn", "cN", "O", "ou", "Ou", "OU", "c", "ST", "serialNumber",
    "EMAIL", "2.5.4.3", "0.9.2342.19200300.100.1.25", "1.2.3", "x-Custom",
    "\u0661.\u0662", ""])
_value = st.text(alphabet=st.sampled_from(
    "aZ1=.-\u00df\u03a3\u0130 \t\n\x1c\xa0\u2003"), max_size=8)
_ava = st.one_of(
    st.builds("{}{}{}={}".format, _spaces, _attr_type, _spaces, _value),
    _value.filter(lambda v: "=" not in v))
_unescaped_dn = st.lists(
    st.one_of(st.lists(_ava, min_size=1, max_size=3).map("+".join), _spaces),
    max_size=4).map(",".join)


def test_case_and_whitespace_insensitive():
    a = normalize_name("CN=Example CA, O=Example")
    b = normalize_name("cn=example  ca, o=EXAMPLE")
    assert a == b


def test_empty_name_equals_only_empty():
    assert normalize_name("") == EMPTY_NAME
    assert normalize_name("").is_empty
    assert normalize_name("") != normalize_name("CN=x")


def test_component_order_significant():
    a = normalize_name("CN=a, O=b")
    b = normalize_name("O=b, CN=a")
    assert a != b


def test_multivalued_rdn_is_a_set():
    a = normalize_name("CN=a+O=b, C=us")
    b = normalize_name("O=b+CN=a, C=us")
    assert a == b


def test_escaped_separators():
    name = normalize_name(r"CN=Example\, Inc, O=Acme")
    assert len(name.rdns) == 2
    assert name.attr_values("cn") == ["example, inc"]


def test_format_round_trip(figure1):
    for record in figure1.records:
        assert normalize_name(format_name(record.subject)) == record.subject


@given(name_parts)
def test_normalize_idempotent(parts):
    once = normalize_name(parts)
    assert normalize_name(once) == once
    assert normalize_name(format_name(once)) == once


@given(name_parts)
def test_perturbed_case_equal(parts):
    upper = [[(t, v.upper()) for t, v in r] for r in parts]
    assert normalize_name(parts) == normalize_name(upper)


def test_order_matches_strict_order_oracle():
    # Independent oracle: ordered tuple comparison of normalized components.
    rng = random.Random(7)
    attrs = ["CN", "O", "OU", "C", "L"]
    for _ in range(100):
        n = rng.randrange(2, 5)
        parts = [[(rng.choice(attrs), f"v{rng.randrange(5)}")] for _ in range(n)]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        a, b = normalize_name(parts), normalize_name(shuffled)
        oracle_equal = [sorted(r) for r in a.rdns] == [sorted(r) for r in b.rdns]
        assert (a == b) == oracle_equal


def test_startswith_prefix_semantics():
    full = normalize_name("C=ch, O=Swiss Government PKI, CN=Anything")
    prefix = normalize_name("C=ch, O=swiss  government pki")
    other = normalize_name("C=us")
    assert full.startswith(prefix)
    assert not full.startswith(other)
    assert not prefix.startswith(full)


def _reference_parse(dn):
    """The DN parser with the escape-aware loop and regex unescape applied
    to every text, backslash or not."""
    dn = dn.strip()
    if not dn:
        return EMPTY_NAME
    rdns = []
    for rdn_text in _split_escaped(dn, ","):
        if not rdn_text.strip():
            continue
        pairs = []
        for ava in _split_escaped(rdn_text, "+"):
            if "=" not in ava:
                raise ValueError(ava)
            attr_type, _, value = ava.partition("=")
            pairs.append((re.sub(r"\\(.)", r"\1", attr_type.strip()),
                          re.sub(r"\\(.)", r"\1", value)))
        rdns.append(pairs)
    return from_rdns(rdns)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@given(dn_text)
def test_dn_fast_path_matches_escape_aware_loop(text):
    for sep in ",+":
        assert _split_unescaped(text, sep) == _split_escaped(text, sep)
    assert _outcome(_parse_dn_string, text) == _outcome(_reference_parse, text)


def _regex_parse(dn):
    """The parse of DN text without a backslash, normalized with regexes: a
    dotted OID is matched by pattern and whitespace runs by `\\s+`."""
    rdns = []
    for rdn_text in dn.split(","):
        if not rdn_text.strip():
            continue
        pairs = set()
        for ava in rdn_text.split("+"):
            if "=" not in ava:
                raise ValueError(ava)
            attr_type, _, value = ava.partition("=")
            attr_type = attr_type.strip()
            if not re.match(r"^\d+(\.\d+)+$", attr_type):
                attr_type = attr_type.casefold()
                attr_type = _SHORT_TO_OID.get(attr_type, attr_type)
            pairs.add((attr_type,
                       re.sub(r"\s+", " ", value.strip()).casefold()))
        rdns.append(frozenset(pairs))
    return NormalizedName(tuple(rdns))


@given(st.text())
def test_normalize_value_matches_regex_collapse(value):
    assert normalize_value(value) == \
        re.sub(r"\s+", " ", value.strip()).casefold()


@given(_unescaped_dn)
def test_dn_normalization_matches_regex_reference(text):
    assert "\\" not in text
    assert _outcome(_parse_dn_string, text) == _outcome(_regex_parse, text)
