"""Integer coding of IPv4 prefixes — the full-DFZ-scale hot-path key.

A prefix ``(network, length)`` packs losslessly into one Python int::

    code = (network << 6) | length          # length fits in 6 bits

The coding is the foundation of the repository's million-route path: a
dict/set of int codes costs roughly half the memory of the equivalent
:class:`~repro.net.addresses.IPv4Prefix` objects, hashes without a method
call, and — crucially — **sorts identically** to the prefix objects
(:class:`IPv4Prefix` orders by ``(network, length)`` and the code is
exactly that tuple read as one integer).  Every deterministic iteration
order in the planner/RIB layer (sorted prefixes, ``min()`` of a pending
buffer) follows prefix order, so the group managers key all route state
by code and campaign sweeps stay byte-identical to prefix-object order.

Only *masked* networks are valid codes: :func:`encode` masks host bits
exactly like the :class:`IPv4Prefix` constructor, so
``encode(p.network.value, p.length) == encode_prefix(p)`` for any prefix.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.net.addresses import AddressError, IPv4Address, IPv4Prefix

#: Bits reserved for the mask length (0..32 needs 6 bits).
LENGTH_BITS = 6
_LENGTH_MASK = (1 << LENGTH_BITS) - 1

#: Largest valid code: 255.255.255.255/32.
MAX_CODE = (0xFFFFFFFF << LENGTH_BITS) | 32

#: Netmask per prefix length, precomputed once (index = length).
MASKS: Tuple[int, ...] = tuple(
    0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    for length in range(33)
)


def encode(network: int, length: int) -> int:
    """Pack ``(network, length)`` into one int key (host bits masked off)."""
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    if not 0 <= network <= 0xFFFFFFFF:
        raise AddressError(f"IPv4 integer out of range: {network}")
    return ((network & MASKS[length]) << LENGTH_BITS) | length


def encode_prefix(prefix: IPv4Prefix) -> int:
    """The int code of an :class:`IPv4Prefix` (already masked)."""
    return (prefix.network.value << LENGTH_BITS) | prefix.length


def decode(code: int) -> Tuple[int, int]:
    """``(network, length)`` of a code."""
    return code >> LENGTH_BITS, code & _LENGTH_MASK


def decode_prefix(code: int) -> IPv4Prefix:
    """Materialise the :class:`IPv4Prefix` behind a code."""
    return IPv4Prefix(IPv4Address(code >> LENGTH_BITS), code & _LENGTH_MASK)


def length_of(code: int) -> int:
    """The mask length of a code (no decode allocation)."""
    return code & _LENGTH_MASK


def network_of(code: int) -> int:
    """The masked network int of a code (no decode allocation)."""
    return code >> LENGTH_BITS


def code_str(code: int) -> str:
    """Human-readable ``a.b.c.d/len`` form of a code."""
    net, length = code >> LENGTH_BITS, code & _LENGTH_MASK
    return (
        f"{(net >> 24) & 0xFF}.{(net >> 16) & 0xFF}."
        f"{(net >> 8) & 0xFF}.{net & 0xFF}/{length}"
    )


def from_str(text: str) -> int:
    """Parse ``a.b.c.d/len`` into a code (via the strict prefix parser)."""
    return encode_prefix(IPv4Prefix(text))


def contains_address(code: int, address: int) -> bool:
    """Whether the 32-bit ``address`` falls inside the coded prefix."""
    length = code & _LENGTH_MASK
    return (address & MASKS[length]) == code >> LENGTH_BITS


def encode_many(prefixes: Iterable[IPv4Prefix]) -> List[int]:
    """Bulk :func:`encode_prefix` (table loads)."""
    shift = LENGTH_BITS
    return [(p.network.value << shift) | p.length for p in prefixes]


def decode_many(codes: Iterable[int]) -> Iterator[IPv4Prefix]:
    """Lazily materialise prefix objects from codes (sorted input stays
    sorted: codes and prefixes share one total order)."""
    for code in codes:
        yield IPv4Prefix(IPv4Address(code >> LENGTH_BITS), code & _LENGTH_MASK)
