from functools import partial

from msectun.frame import Sci
from msectun.pair import seal

MAC_A = b"\x02\xaa\x00\x00\x00\x01"
MAC_B = b"\x02\xbb\x00\x00\x00\x01"
SCI_A = Sci(MAC_A, 1)
SCI_B = Sci(MAC_B, 1)
KEY = bytes(range(16))

# protect(dst, src, sci, pn, payload=..., an=..., ethertype=...) -> wire bytes
protect = partial(seal, KEY)
