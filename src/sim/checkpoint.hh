/**
 * @file
 * Versioned tagged-binary checkpoint serialization.
 *
 * A checkpoint file is a fixed header (magic, format version, a
 * 64-bit fingerprint of the producing configuration), a sequence of
 * tagged sections ([u32 tag][u64 length][payload]) and a trailing
 * FNV-1a checksum over every preceding byte. Sections are written and
 * read in the same fixed order; the reader validates the magic,
 * version, fingerprint and checksum up front and every field read is
 * bounds-checked against its section, so a truncated, corrupted or
 * mismatched file is rejected with a structured FatalError instead of
 * yielding a silently wrong simulation.
 *
 * The writer/reader pair is deliberately dumb: components serialize
 * themselves field by field (fixed-width little-endian integers and
 * IEEE doubles), so the byte stream is identical across hosts and a
 * restore is exact, not approximate.
 */

#ifndef NOCSTAR_SIM_CHECKPOINT_HH
#define NOCSTAR_SIM_CHECKPOINT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace nocstar::sim
{

/** Four-character section/format tags as big-endian-readable u32s. */
constexpr std::uint32_t
ckptTag(char a, char b, char c, char d)
{
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(a))
            << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c))
            << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d));
}

/**
 * Current checkpoint format version. Bump on any layout change.
 * Version 2 stores each TLB array as its set blocks' words.
 */
constexpr std::uint32_t kCheckpointVersion = 2;

/** 64-bit FNV-1a, used for the trailing checksum and fingerprints. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/**
 * Serializes checkpoint sections into a growable buffer and writes
 * the framed file (header + sections + checksum) in one shot.
 */
class CkptWriter
{
  public:
    explicit CkptWriter(std::uint64_t fingerprint)
        : fingerprint_(fingerprint)
    {}

    /** Open a tagged section; every put lands inside it. */
    void begin(std::uint32_t tag);
    /** Close the open section, patching its length field. */
    void end();

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        putLe(v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        putLe(v, 8);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        putLe(bits, 8);
    }

    /** Serialized size so far (memory-audit accounting). */
    std::size_t sizeBytes() const { return buf_.size(); }

    /** Write the framed checkpoint to @p path (fatal on I/O error). */
    void save(const std::string &path) const;

    /** The framed bytes that save() would write (tests, audits). */
    std::vector<std::uint8_t> framed() const;

  private:
    void
    putLe(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::uint64_t fingerprint_;
    std::vector<std::uint8_t> buf_;
    std::size_t sectionStart_ = 0;
    bool inSection_ = false;
};

/**
 * Validates and reads a checkpoint file. The constructor checks the
 * frame (magic, version, fingerprint, checksum); enter()/leave()
 * walk the sections in written order, and every getter bounds-checks
 * against the section payload, so malformed files fail fast with a
 * structured error naming the problem.
 */
class CkptReader
{
  public:
    /** Load and validate @p path against @p expect_fingerprint. */
    CkptReader(const std::string &path,
               std::uint64_t expect_fingerprint);

    /** Open the next section, which must carry @p tag. */
    void enter(std::uint32_t tag);
    /** Close the current section, which must be fully consumed. */
    void leave();

    std::uint8_t
    u8()
    {
        need(1);
        return buf_[pos_++];
    }

    std::uint32_t
    u32()
    {
        return static_cast<std::uint32_t>(getLe(4));
    }

    std::uint64_t
    u64()
    {
        return getLe(8);
    }

    double
    f64()
    {
        std::uint64_t bits = getLe(8);
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    /** True once every section has been consumed. */
    bool atEnd() const { return pos_ >= payloadEnd_; }

  private:
    void need(std::size_t n);
    std::uint64_t getLe(unsigned bytes);

    std::string path_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t payloadEnd_ = 0;
    std::size_t sectionEnd_ = 0;
    bool inSection_ = false;
};

} // namespace nocstar::sim

#endif // NOCSTAR_SIM_CHECKPOINT_HH
