#include "core/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "core/multi_tree_mining.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/fs_ops.h"

namespace cousins {
namespace internal {

uint32_t Crc32(const char* data, size_t size) {
  static const std::vector<uint32_t>& table = *[] {
    auto* t = new std::vector<uint32_t>(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      (*t)[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace internal

namespace {

// --- little-endian primitives ----------------------------------------

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}
void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

/// Bounds-checked sequential reader over the checkpoint body. Any
/// overrun is kCorruption "truncated checkpoint body" — unreachable
/// when the length and CRC checks passed, but kept as defense in depth
/// against codec bugs.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  size_t offset() const { return pos_; }

  Status ReadU32(uint32_t* v) {
    COUSINS_RETURN_IF_ERROR(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* v) {
    COUSINS_RETURN_IF_ERROR(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }

  Status ReadI32(int32_t* v) {
    uint32_t u = 0;
    COUSINS_RETURN_IF_ERROR(ReadU32(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }

  Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    COUSINS_RETURN_IF_ERROR(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status ReadU8(uint8_t* v) {
    COUSINS_RETURN_IF_ERROR(Need(1));
    *v = static_cast<unsigned char>(data_[pos_++]);
    return Status::OK();
  }

  Status ReadBytes(size_t n, std::string* out) {
    COUSINS_RETURN_IF_ERROR(Need(n));
    out->assign(data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

 private:
  Status Need(size_t n) {
    if (pos_ + n > size_) {
      return Status::Corruption("truncated checkpoint body");
    }
    return Status::OK();
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

namespace {

void PutLengthPrefixed(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Appends the version-2 quarantine-ledger section: entry count, then
/// each entry in the ledger's canonical order so the section is
/// byte-stable across runs and resumes.
void EncodeLedgerSection(const QuarantineLedger* ledger,
                         std::string* out) {
  const std::vector<QuarantineEntry> entries =
      ledger == nullptr ? std::vector<QuarantineEntry>{}
                        : ledger->Entries();
  PutU64(entries.size(), out);
  for (const QuarantineEntry& entry : entries) {
    PutI64(entry.tree_index, out);
    out->push_back(static_cast<char>(entry.stage));
    PutI32(static_cast<int32_t>(entry.code), out);
    PutU64(entry.byte_offset, out);
    PutU64(entry.line, out);
    PutU64(entry.column, out);
    PutLengthPrefixed(entry.source, out);
    PutLengthPrefixed(entry.message, out);
    PutLengthPrefixed(entry.snippet, out);
  }
}

Status DecodeLedgerSection(Reader* body,
                           std::vector<QuarantineEntry>* out) {
  uint64_t count = 0;
  COUSINS_RETURN_IF_ERROR(body->ReadU64(&count));
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    QuarantineEntry entry;
    COUSINS_RETURN_IF_ERROR(body->ReadI64(&entry.tree_index));
    uint8_t stage = 0;
    COUSINS_RETURN_IF_ERROR(body->ReadU8(&stage));
    if (stage > static_cast<uint8_t>(QuarantineStage::kBootstrap)) {
      return Status::Corruption("checkpoint quarantine stage out of range");
    }
    entry.stage = static_cast<QuarantineStage>(stage);
    int32_t code = 0;
    COUSINS_RETURN_IF_ERROR(body->ReadI32(&code));
    if (code < 0 ||
        code > static_cast<int32_t>(StatusCode::kUnavailable)) {
      return Status::Corruption(
          "checkpoint quarantine status code out of range");
    }
    entry.code = static_cast<StatusCode>(code);
    COUSINS_RETURN_IF_ERROR(body->ReadU64(&entry.byte_offset));
    COUSINS_RETURN_IF_ERROR(body->ReadU64(&entry.line));
    COUSINS_RETURN_IF_ERROR(body->ReadU64(&entry.column));
    uint32_t len = 0;
    COUSINS_RETURN_IF_ERROR(body->ReadU32(&len));
    COUSINS_RETURN_IF_ERROR(body->ReadBytes(len, &entry.source));
    COUSINS_RETURN_IF_ERROR(body->ReadU32(&len));
    COUSINS_RETURN_IF_ERROR(body->ReadBytes(len, &entry.message));
    COUSINS_RETURN_IF_ERROR(body->ReadU32(&len));
    COUSINS_RETURN_IF_ERROR(body->ReadBytes(len, &entry.snippet));
    out->push_back(std::move(entry));
  }
  return Status::OK();
}

}  // namespace

std::string MultiTreeMiner::SerializeCheckpoint(
    const QuarantineLedger* ledger) const {
  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutU32(kCheckpointVersion, &out);
  PutU64(0, &out);  // total size backpatched below

  PutI32(options_.per_tree.twice_maxdist, &out);
  PutI64(options_.per_tree.min_occur, &out);
  PutI32(options_.min_support, &out);
  out.push_back(options_.ignore_distance ? 1 : 0);
  out.push_back(static_cast<char>(options_.variant));
  PutI32(options_.generalized.max_horizontal, &out);
  PutI32(options_.generalized.max_vertical, &out);
  uint64_t bucket_bits = 0;
  static_assert(sizeof(bucket_bits) == sizeof(options_.weighted.bucket_width));
  std::memcpy(&bucket_bits, &options_.weighted.bucket_width,
              sizeof(bucket_bits));
  PutU64(bucket_bits, &out);
  PutI64(tree_count_, &out);

  // Full label table in id order (position == LabelId); restore remaps
  // tally ids by name, so checkpoints survive forests whose reload
  // interns labels in a different order.
  const uint64_t label_count = labels_ == nullptr ? 0 : labels_->size();
  PutU64(label_count, &out);
  for (uint64_t id = 0; id < label_count; ++id) {
    const std::string& name = labels_->Name(static_cast<LabelId>(id));
    PutU32(static_cast<uint32_t>(name.size()), &out);
    out.append(name);
  }

  // Unified tally record across variants: (labels, distance, aux).
  // The aux word is 0 for the cousin/free variants, the packed (h, v)
  // kinship for generalized (distance 0 there) and the bit-cast bucket
  // for weighted. Each accessor returns canonical key order, so the
  // section is byte-stable.
  struct Record {
    int32_t label1, label2, twice_distance;
    uint32_t aux;
    int32_t support;
    int64_t occurrences;
  };
  std::vector<Record> records;
  switch (options_.variant) {
    case MinerVariant::kCousin:
    case MinerVariant::kFreeTree:
      for (const FrequentCousinPair& t : AllTallies()) {
        records.push_back({t.label1, t.label2, t.twice_distance, 0,
                           t.support, t.total_occurrences});
      }
      break;
    case MinerVariant::kGeneralized:
      for (const FrequentGeneralizedPair& t : AllGeneralizedTallies()) {
        records.push_back({t.label1, t.label2, 0,
                           internal::PackHV(t.horizontal, t.vertical),
                           t.support, t.total_occurrences});
      }
      break;
    case MinerVariant::kWeighted:
      for (const FrequentWeightedPair& t : AllWeightedTallies()) {
        records.push_back({t.label1, t.label2, t.twice_distance,
                           internal::PackBucket(t.weight_bucket), t.support,
                           t.total_occurrences});
      }
      break;
  }
  PutU64(records.size(), &out);
  for (const Record& t : records) {
    PutI32(t.label1, &out);
    PutI32(t.label2, &out);
    PutI32(t.twice_distance, &out);
    PutU32(t.aux, &out);
    PutI32(t.support, &out);
    PutI64(t.occurrences, &out);
  }

  EncodeLedgerSection(ledger, &out);

  const uint64_t total = out.size() + 4;  // + trailing CRC
  for (int i = 0; i < 8; ++i) {
    out[12 + i] = static_cast<char>((total >> (8 * i)) & 0xFFu);
  }
  PutU32(internal::Crc32(out.data(), out.size()), &out);
  return out;
}

Result<MultiTreeMiner> MultiTreeMiner::RestoreFromCheckpoint(
    const std::string& bytes, const MultiTreeMiningOptions& expected_options,
    std::shared_ptr<LabelTable> labels, QuarantineLedger* ledger) {
  Result<MultiTreeMiner> result = RestoreFromCheckpointImpl(
      bytes, expected_options, std::move(labels), ledger);
  if (result.ok()) {
    COUSINS_METRIC_COUNTER_ADD("checkpoint.restores", 1);
  } else {
    COUSINS_METRIC_COUNTER_ADD("checkpoint.restore_failures", 1);
  }
  return result;
}

Result<MultiTreeMiner> MultiTreeMiner::RestoreFromCheckpointImpl(
    const std::string& bytes, const MultiTreeMiningOptions& expected_options,
    std::shared_ptr<LabelTable> labels, QuarantineLedger* ledger) {
  COUSINS_CHECK(labels != nullptr &&
                "RestoreFromCheckpoint needs the forest's label table");
  // Fixed-size prefix: magic + version + total size.
  constexpr size_t kPrefix = sizeof(kCheckpointMagic) + 4 + 8;
  if (bytes.size() < kPrefix + 4) {
    return Status::Corruption("checkpoint too short (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic");
  }
  Reader header(bytes.data() + sizeof(kCheckpointMagic),
                bytes.size() - sizeof(kCheckpointMagic));
  uint32_t version = 0;
  uint64_t total = 0;
  COUSINS_RETURN_IF_ERROR(header.ReadU32(&version));
  COUSINS_RETURN_IF_ERROR(header.ReadU64(&total));
  if (version != kCheckpointVersion) {
    return Status::Corruption(
        "unsupported checkpoint version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        ")");
  }
  if (total != bytes.size()) {
    return Status::Corruption(
        "truncated checkpoint: header declares " + std::to_string(total) +
        " bytes, file has " + std::to_string(bytes.size()));
  }
  const size_t body_end = bytes.size() - 4;
  uint32_t stored_crc = 0;
  {
    Reader trailer(bytes.data() + body_end, 4);
    COUSINS_RETURN_IF_ERROR(trailer.ReadU32(&stored_crc));
  }
  if (internal::Crc32(bytes.data(), body_end) != stored_crc) {
    return Status::Corruption("checkpoint checksum mismatch");
  }

  Reader body(bytes.data() + kPrefix, body_end - kPrefix);
  MultiTreeMiningOptions stored;
  int64_t min_occur = 0;
  int32_t twice_maxdist = 0;
  int32_t min_support = 0;
  uint8_t ignore_distance = 0;
  COUSINS_RETURN_IF_ERROR(body.ReadI32(&twice_maxdist));
  COUSINS_RETURN_IF_ERROR(body.ReadI64(&min_occur));
  COUSINS_RETURN_IF_ERROR(body.ReadI32(&min_support));
  COUSINS_RETURN_IF_ERROR(body.ReadU8(&ignore_distance));
  uint8_t variant_byte = 0;
  COUSINS_RETURN_IF_ERROR(body.ReadU8(&variant_byte));
  if (variant_byte > static_cast<uint8_t>(MinerVariant::kWeighted)) {
    return Status::Corruption("checkpoint miner variant out of range");
  }
  int32_t max_horizontal = 0;
  int32_t max_vertical = 0;
  uint64_t bucket_bits = 0;
  COUSINS_RETURN_IF_ERROR(body.ReadI32(&max_horizontal));
  COUSINS_RETURN_IF_ERROR(body.ReadI32(&max_vertical));
  COUSINS_RETURN_IF_ERROR(body.ReadU64(&bucket_bits));
  stored.per_tree.twice_maxdist = twice_maxdist;
  stored.per_tree.min_occur = min_occur;
  stored.min_support = min_support;
  stored.ignore_distance = ignore_distance != 0;
  stored.variant = static_cast<MinerVariant>(variant_byte);
  stored.generalized.max_horizontal = max_horizontal;
  stored.generalized.max_vertical = max_vertical;
  std::memcpy(&stored.weighted.bucket_width, &bucket_bits,
              sizeof(bucket_bits));
  if (!(stored == expected_options)) {
    return Status::FailedPrecondition(
        "checkpoint mining options mismatch (checkpoint: variant=" +
        MinerVariantName(stored.variant) +
        ", maxdist=" + std::to_string(twice_maxdist) +
        "/2, minoccur=" + std::to_string(min_occur) +
        ", minsup=" + std::to_string(min_support) + ", ignore_distance=" +
        (stored.ignore_distance ? "true" : "false") +
        ", max_h=" + std::to_string(max_horizontal) +
        ", max_v=" + std::to_string(max_vertical) +
        ", bucket_width=" + std::to_string(stored.weighted.bucket_width) +
        ") — resume with the options of the interrupted run");
  }

  int64_t cursor = 0;
  COUSINS_RETURN_IF_ERROR(body.ReadI64(&cursor));
  if (cursor < 0) {
    return Status::Corruption("negative checkpoint tree cursor");
  }

  uint64_t label_count = 0;
  COUSINS_RETURN_IF_ERROR(body.ReadU64(&label_count));
  // Old (checkpoint-time) id -> id in the caller's table.
  std::vector<LabelId> remap;
  remap.reserve(label_count);
  for (uint64_t i = 0; i < label_count; ++i) {
    uint32_t len = 0;
    COUSINS_RETURN_IF_ERROR(body.ReadU32(&len));
    std::string name;
    COUSINS_RETURN_IF_ERROR(body.ReadBytes(len, &name));
    remap.push_back(labels->Intern(name));
  }

  MultiTreeMiner miner(expected_options);
  miner.labels_ = std::move(labels);
  miner.tree_count_ = static_cast<int32_t>(cursor);

  uint64_t tally_count = 0;
  COUSINS_RETURN_IF_ERROR(body.ReadU64(&tally_count));
  miner.EnsureTallyCapacity();
  for (uint64_t i = 0; i < tally_count; ++i) {
    int32_t l1 = 0;
    int32_t l2 = 0;
    int32_t twice_distance = 0;
    uint32_t aux = 0;
    int32_t support = 0;
    int64_t occurrences = 0;
    COUSINS_RETURN_IF_ERROR(body.ReadI32(&l1));
    COUSINS_RETURN_IF_ERROR(body.ReadI32(&l2));
    COUSINS_RETURN_IF_ERROR(body.ReadI32(&twice_distance));
    COUSINS_RETURN_IF_ERROR(body.ReadU32(&aux));
    COUSINS_RETURN_IF_ERROR(body.ReadI32(&support));
    COUSINS_RETURN_IF_ERROR(body.ReadI64(&occurrences));
    if (l1 < 0 || l2 < 0 ||
        static_cast<uint64_t>(l1) >= label_count ||
        static_cast<uint64_t>(l2) >= label_count) {
      return Status::Corruption("checkpoint tally label id out of range");
    }
    if (support < 0 || occurrences < 0) {
      return Status::Corruption("negative checkpoint tally count");
    }
    // Each variant admits only the (distance, aux) shapes its tables
    // can hold; anything else is a corrupt record the old flat map
    // would have absorbed silently.
    LabelId a = remap[static_cast<size_t>(l1)];
    LabelId b = remap[static_cast<size_t>(l2)];
    // Re-canonicalize under the new ids; safe for every variant — the
    // aux word ((h, v) kinship or weight bucket) is symmetric in the
    // label order.
    if (a > b) std::swap(a, b);
    bool fresh = false;
    switch (expected_options.variant) {
      case MinerVariant::kCousin:
      case MinerVariant::kFreeTree: {
        const bool distance_ok =
            expected_options.ignore_distance
                ? twice_distance == kAnyDistance
                : twice_distance >= 0 &&
                      twice_distance <=
                          expected_options.per_tree.twice_maxdist;
        if (!distance_ok) {
          return Status::Corruption(
              "checkpoint tally distance out of range");
        }
        if (aux != 0) {
          return Status::Corruption(
              "nonzero aux word on a cousin-variant checkpoint tally");
        }
        fresh = miner.tables_[miner.TableIndex(twice_distance)].Add(
            internal::PackLabelPair(a, b), support, occurrences);
        break;
      }
      case MinerVariant::kGeneralized: {
        if (twice_distance != 0) {
          return Status::Corruption(
              "checkpoint tally distance out of range");
        }
        if (internal::UnpackH(aux) >
                expected_options.generalized.max_horizontal ||
            internal::UnpackV(aux) >
                expected_options.generalized.max_vertical) {
          return Status::Corruption(
              "checkpoint tally kinship exceeds the generalized caps");
        }
        fresh = miner.aux_tables_[0].Add({internal::PackLabelPair(a, b), aux},
                                         support, occurrences);
        break;
      }
      case MinerVariant::kWeighted: {
        if (twice_distance < 0 ||
            twice_distance > expected_options.per_tree.twice_maxdist) {
          return Status::Corruption(
              "checkpoint tally distance out of range");
        }
        fresh = miner.aux_tables_[static_cast<size_t>(twice_distance)].Add(
            {internal::PackLabelPair(a, b), aux}, support, occurrences);
        break;
      }
    }
    if (!fresh) {
      return Status::Corruption("duplicate checkpoint tally key");
    }
    ++miner.total_tallies_;
  }

  std::vector<QuarantineEntry> quarantined;
  COUSINS_RETURN_IF_ERROR(DecodeLedgerSection(&body, &quarantined));
  if (body.offset() != body_end - kPrefix) {
    return Status::Corruption("trailing bytes after checkpoint payload");
  }
  if (!quarantined.empty() && ledger == nullptr) {
    return Status::FailedPrecondition(
        "checkpoint records " + std::to_string(quarantined.size()) +
        " quarantined tree(s) — it was written by a lenient run; resume "
        "in lenient mode so the quarantine ledger is preserved");
  }
  // Merge, not replace: Add() drops exact duplicates, so the entries
  // this process already recorded (its deterministic re-parse of the
  // same input) unify with the checkpointed ones instead of doubling,
  // and entries only one side knows about survive.
  if (ledger != nullptr) {
    for (QuarantineEntry& entry : quarantined) {
      ledger->Add(std::move(entry));
    }
  }
  return miner;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes,
                       const std::string& site_prefix, int* err) {
  if (err != nullptr) *err = 0;
  const std::string tmp = path + ".tmp";
  Result<int> fd = fs::OpenTrunc((site_prefix + ".open").c_str(), tmp, err);
  if (!fd.ok()) {
    COUSINS_METRIC_COUNTER_ADD("checkpoint.write_failures", 1);
    return fd.status();
  }
  fs::IoOutcome wrote =
      fs::WriteAll((site_prefix + ".write").c_str(), *fd, bytes);
  if (!wrote.ok()) {
    if (err != nullptr) *err = wrote.err;
    close(*fd);
    std::remove(tmp.c_str());
    COUSINS_METRIC_COUNTER_ADD("checkpoint.write_failures", 1);
    return wrote.status;
  }
  // fsync before rename: rename(2) is atomic, but only durably
  // replaces the old file once the new bytes are on disk. The tmp fd
  // is discarded on failure, so the fsync-poisoning rule reduces to
  // "remove the tmp file and report" here.
  fs::IoOutcome synced = fs::Fsync((site_prefix + ".flush").c_str(), *fd);
  if (!synced.ok()) {
    if (err != nullptr) *err = synced.err;
    close(*fd);
    std::remove(tmp.c_str());
    COUSINS_METRIC_COUNTER_ADD("checkpoint.write_failures", 1);
    return synced.status;
  }
  if (close(*fd) != 0) {
    if (err != nullptr) *err = errno;
    std::remove(tmp.c_str());
    COUSINS_METRIC_COUNTER_ADD("checkpoint.write_failures", 1);
    return Status::Unavailable("cannot close temp file '" + tmp + "'");
  }
  // fs::Rename fires its fault before the syscall runs: once rename
  // executes the destination is already replaced, and a "failed" write
  // that still clobbered the previous file would break the
  // crash-safety contract the sweep test drills.
  Status renamed =
      fs::Rename((site_prefix + ".rename").c_str(), tmp, path, err);
  if (!renamed.ok()) {
    std::remove(tmp.c_str());
    COUSINS_METRIC_COUNTER_ADD("checkpoint.write_failures", 1);
    return renamed;
  }
  // rename(2) alone is atomic but not durable: the directory entry
  // pointing at the new inode lives in the directory's own data, and a
  // crash before that hits disk resurrects the old file (or nothing).
  // On failure the new contents are already visible at `path` — do NOT
  // remove them; the caller's retry rewrites the same bytes
  // idempotently.
  Status dir_synced =
      fs::FsyncDirOf((site_prefix + ".dirsync").c_str(), path, err);
  if (!dir_synced.ok()) {
    COUSINS_METRIC_COUNTER_ADD("checkpoint.write_failures", 1);
    return dir_synced;
  }
  COUSINS_METRIC_COUNTER_ADD("checkpoint.writes", 1);
  COUSINS_METRIC_COUNTER_ADD("checkpoint.bytes_written", bytes.size());
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path,
                                     const char* site) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    bytes.append(buffer, n);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error || fault::Fired(site)) {
    return Status::Unavailable("read error on '" + path + "' (at " +
                               site + ")");
  }
  return bytes;
}

}  // namespace cousins
