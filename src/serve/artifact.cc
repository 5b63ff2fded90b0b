#include "serve/artifact.h"

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "geo/latlng.h"
#include "nn/serialize.h"
#include "rec/registry.h"

namespace pa::serve {

namespace {

// "PASV" — Poi Augmentation SerVing artifact.
constexpr uint32_t kMagic = 0x50415356;
// v2 added a trailer flag after the payload; v1 files still load.
constexpr uint32_t kContainerVersion = 2;
constexpr uint32_t kMinContainerVersion = 1;
// Artifacts above this size are assumed corrupt rather than real (the
// largest model in this library is a few MB). The loader enforces this as
// a running cap while reading, so a corrupt or hostile file is rejected
// after at most this much allocation, not after slurping the whole stream.
constexpr uint64_t kMaxBodyBytes = uint64_t{1} << 28;

bool Fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

template <typename T>
void AppendPod(std::string& buf, const T& value) {
  buf.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(const char*& p, const char* end, T* out) {
  if (end - p < static_cast<ptrdiff_t>(sizeof(T))) return false;
  std::memcpy(out, p, sizeof(T));
  p += sizeof(T);
  return true;
}

}  // namespace

bool SaveArtifact(std::ostream& os, const rec::Recommender& model,
                  const poi::PoiTable& pois, std::string* error) {
  // Serialize the model payload first; an unfitted model fails here before
  // anything is written.
  std::ostringstream payload_stream(std::ios::binary);
  if (!model.Save(payload_stream, error)) return false;
  const std::string payload = payload_stream.str();

  // Assemble the checksummed body in memory (name + POI block + payload).
  // Models in this library are a few MB at most, so buffering is cheap and
  // lets the checksum live in the header where a reader finds it first.
  std::string body;
  const std::string name = model.name();
  body.reserve(64 + static_cast<size_t>(pois.size()) * 24 + payload.size());
  AppendPod(body, static_cast<uint64_t>(name.size()));
  body += name;
  AppendPod(body, static_cast<int32_t>(pois.size()));
  for (int32_t i = 0; i < pois.size(); ++i) {
    const geo::LatLng& c = pois.coord(i);
    AppendPod(body, c.lat);
    AppendPod(body, c.lng);
    AppendPod(body, pois.popularity(i));
  }
  AppendPod(body, static_cast<uint64_t>(payload.size()));
  body += payload;

  // v2 trailer flag: 0, no legacy section follows.
  AppendPod(body, static_cast<uint8_t>(0));

  const uint64_t checksum = nn::Checksum64(body.data(), body.size());
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&kContainerVersion),
           sizeof(kContainerVersion));
  os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!os.good()) return Fail(error, "write failed while saving artifact");
  return true;
}

bool LoadArtifact(std::istream& is, LoadedModel* out, std::string* error) {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t checksum = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  is.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!is.good()) return Fail(error, "truncated artifact (header)");
  if (magic != kMagic) return Fail(error, "not a serving artifact (bad magic)");
  if (version < kMinContainerVersion || version > kContainerVersion) {
    return Fail(error, "unsupported artifact version " +
                           std::to_string(version) + " (this build reads v" +
                           std::to_string(kMinContainerVersion) + "-v" +
                           std::to_string(kContainerVersion) + ")");
  }

  // Read the body in chunks with a running size cap, verify the checksum,
  // then parse from memory — the parse below can trust every length field
  // it reads, and an implausibly large file is rejected without first
  // buffering all of it.
  std::string body;
  char chunk[64 * 1024];
  while (true) {
    is.read(chunk, sizeof(chunk));
    body.append(chunk, static_cast<size_t>(is.gcount()));
    if (body.size() > kMaxBodyBytes) {
      return Fail(error, "artifact body implausibly large");
    }
    if (!is.good()) break;
  }
  if (is.bad()) return Fail(error, "read failed while loading artifact");
  if (nn::Checksum64(body.data(), body.size()) != checksum) {
    return Fail(error, "checksum mismatch (corrupt artifact)");
  }

  const char* p = body.data();
  const char* end = p + body.size();

  uint64_t name_len = 0;
  if (!ReadPod(p, end, &name_len) ||
      name_len > static_cast<uint64_t>(end - p)) {
    return Fail(error, "truncated artifact (name)");
  }
  std::string name(p, static_cast<size_t>(name_len));
  p += name_len;

  int32_t num_pois = 0;
  if (!ReadPod(p, end, &num_pois) || num_pois < 0) {
    return Fail(error, "truncated artifact (POI count)");
  }
  std::vector<geo::LatLng> coords;
  std::vector<int64_t> popularity;
  coords.reserve(static_cast<size_t>(num_pois));
  popularity.reserve(static_cast<size_t>(num_pois));
  for (int32_t i = 0; i < num_pois; ++i) {
    geo::LatLng c;
    int64_t pop = 0;
    if (!ReadPod(p, end, &c.lat) || !ReadPod(p, end, &c.lng) ||
        !ReadPod(p, end, &pop)) {
      return Fail(error, "truncated artifact (POI block)");
    }
    if (!c.IsValid()) {
      return Fail(error, "POI " + std::to_string(i) +
                             " has a coordinate off the globe: " +
                             c.ToString());
    }
    coords.push_back(c);
    popularity.push_back(pop);
  }

  uint64_t payload_len = 0;
  if (!ReadPod(p, end, &payload_len)) {
    return Fail(error, "truncated artifact (model payload)");
  }
  // v1 ends exactly at the payload; v2 follows it with the trailer flag.
  if (version == 1 ? payload_len != static_cast<uint64_t>(end - p)
                   : payload_len > static_cast<uint64_t>(end - p)) {
    return Fail(error, "truncated artifact (model payload)");
  }
  const char* payload_begin = p;
  p += payload_len;

  if (version >= 2) {
    uint8_t quant_flag = 0;
    if (!ReadPod(p, end, &quant_flag) || quant_flag > 1) {
      return Fail(error, "truncated artifact (quantized flag)");
    }
    // Flag 1: an older publisher's int8 section fills the rest of the body.
    // The checksum above already covered it; it is skipped and the model
    // serves float.
    uint64_t quant_len = 0;
    if (quant_flag == 1 && (!ReadPod(p, end, &quant_len) ||
                            quant_len != static_cast<uint64_t>(end - p))) {
      return Fail(error, "truncated artifact (quantized section)");
    }
    if (quant_flag == 0 && p != end) {
      return Fail(error, "trailing bytes after artifact payload");
    }
  }

  auto pois = std::make_shared<poi::PoiTable>(std::move(coords));
  for (int32_t i = 0; i < num_pois; ++i) {
    pois->AddPopularity(i, popularity[static_cast<size_t>(i)]);
  }

  std::istringstream payload(
      std::string(payload_begin, static_cast<size_t>(payload_len)),
      std::ios::binary);
  std::unique_ptr<rec::Recommender> model =
      rec::LoadRecommender(name, payload, *pois, error);
  if (!model) return false;

  out->name = std::move(name);
  out->pois = std::move(pois);
  out->model = std::move(model);
  return true;
}

}  // namespace pa::serve
