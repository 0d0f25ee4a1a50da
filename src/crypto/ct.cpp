#include "crypto/ct.hpp"

namespace salus::crypto {

bool
ctEqual(ByteView a, ByteView b)
{
    if (a.size() != b.size())
        return false;
    uint8_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i)
        acc |= uint8_t(a[i] ^ b[i]);
    return acc == 0;
}

bool
macEqual(uint64_t a, uint64_t b)
{
    uint8_t ab[8], bb[8];
    storeLe64(ab, a);
    storeLe64(bb, b);
    return ctEqual(ByteView(ab, 8), ByteView(bb, 8));
}

} // namespace salus::crypto
