#include "serve/artifact.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/serialize.h"
#include "rec/registry.h"

namespace pa::serve {
namespace {

constexpr int64_t kHour = 3600;

poi::PoiTable SmallPois() {
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < 8; ++i) coords.push_back({40.0 + 0.01 * i, -100.0});
  return poi::PoiTable(std::move(coords));
}

// Users share a deterministic cycle 0 -> 1 -> 2 -> 3 -> 0 ...
std::vector<poi::CheckinSequence> CycleData(int users, int length) {
  std::vector<poi::CheckinSequence> train(users);
  for (int u = 0; u < users; ++u) {
    for (int i = 0; i < length; ++i) {
      train[u].push_back({u, i % 4, i * 3 * kHour, false});
    }
  }
  return train;
}

/// Walks a probe sequence and collects the TopK(10) list before each step —
/// the signature the round-trip tests compare bit-for-bit.
std::vector<std::vector<int32_t>> TopKTrace(const rec::Recommender& model,
                                            int32_t user, int steps) {
  std::vector<std::vector<int32_t>> trace;
  auto session = model.NewSession(user);
  for (int i = 0; i < steps; ++i) {
    const poi::Checkin c{user, i % 4, i * 3 * kHour, false};
    trace.push_back(session->TopK(10, c.timestamp));
    session->Observe(c);
  }
  return trace;
}

class ArtifactRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ArtifactRoundTripTest, TopKIsBitIdenticalAfterSaveLoad) {
  const std::string method = GetParam();
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender(method, /*seed=*/7, /*epochs_scale=*/0.2);
  ASSERT_NE(model, nullptr);
  model->Fit(CycleData(3, 40), pois);

  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois, &error)) << error;

  LoadedModel loaded;
  ASSERT_TRUE(LoadArtifact(artifact, &loaded, &error)) << error;
  EXPECT_EQ(loaded.name, model->name());
  ASSERT_EQ(loaded.pois->size(), pois.size());
  for (int i = 0; i < pois.size(); ++i) {
    EXPECT_EQ(loaded.pois->coord(i), pois.coord(i));
    EXPECT_EQ(loaded.pois->popularity(i), pois.popularity(i));
  }

  const auto before = TopKTrace(*model, /*user=*/1, /*steps=*/12);
  const auto after = TopKTrace(*loaded.model, /*user=*/1, /*steps=*/12);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << method << " diverged at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ArtifactRoundTripTest,
                         ::testing::Values("FPMC-LR", "PRME-G", "RNN", "LSTM",
                                           "ST-CLSTM"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ArtifactTest, RecommenderStreamRoundTripViaRegistry) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("LSTM", 7, 0.2);
  model->Fit(CycleData(2, 40), pois);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(model->Save(buf, &error)) << error;
  auto loaded = rec::LoadRecommender("LSTM", buf, pois, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(TopKTrace(*model, 0, 8), TopKTrace(*loaded, 0, 8));
}

TEST(ArtifactTest, SaveRequiresFittedModel) {
  auto model = rec::MakeRecommender("FPMC-LR");
  std::stringstream buf;
  std::string error;
  EXPECT_FALSE(model->Save(buf, &error));
  EXPECT_NE(error.find("before Fit"), std::string::npos) << error;
}

TEST(ArtifactTest, LoadRejectsCorruptedBytes) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("PRME-G", 7, 0.2);
  model->Fit(CycleData(2, 30), pois);
  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois, &error)) << error;

  std::string bytes = artifact.str();
  bytes[bytes.size() / 2] ^= 0x10;
  std::stringstream corrupt(bytes,
                            std::ios::in | std::ios::out | std::ios::binary);
  LoadedModel loaded;
  EXPECT_FALSE(LoadArtifact(corrupt, &loaded, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(ArtifactTest, LoadRejectsTruncation) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("FPMC-LR", 7, 0.2);
  model->Fit(CycleData(2, 30), pois);
  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois));

  const std::string bytes = artifact.str();
  std::stringstream cut(bytes.substr(0, bytes.size() - 9),
                        std::ios::in | std::ios::out | std::ios::binary);
  LoadedModel loaded;
  std::string error;
  EXPECT_FALSE(LoadArtifact(cut, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ArtifactTest, LoadRejectsBadMagic) {
  std::stringstream junk("this is not an artifact at all, not even close",
                         std::ios::in | std::ios::out | std::ios::binary);
  LoadedModel loaded;
  std::string error;
  EXPECT_FALSE(LoadArtifact(junk, &loaded, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

// --- Container v2: the trailer flag and the legacy int8 section. -----------

// Rewrites an artifact byte string with a mutated body, fixing up the header
// checksum so only the intended difference reaches the parser.
std::string RepackArtifact(const std::string& bytes, uint32_t version,
                           std::string body) {
  const uint64_t checksum = nn::Checksum64(body.data(), body.size());
  std::string out = bytes.substr(0, 16);
  std::memcpy(out.data() + 4, &version, sizeof(version));
  std::memcpy(out.data() + 8, &checksum, sizeof(checksum));
  out += body;
  return out;
}

// An older publisher's `--quantize` wrote flag 1, a u64 length, then an int8
// copy of the output projection: i32 in_dim, i32 out_dim, one f32 scale and
// one f32 bias per column, then in_dim * out_dim int8 weights.
std::string LegacyQuantizedTwin(const std::string& bytes,
                                int64_t length_error) {
  const int32_t in_dim = 24, out_dim = 8;  // LSTM hidden 24, 8 POIs.
  std::string section;
  section.append(reinterpret_cast<const char*>(&in_dim), sizeof(in_dim));
  section.append(reinterpret_cast<const char*>(&out_dim), sizeof(out_dim));
  section.append(2 * sizeof(float) * out_dim, '\x3f');
  section.append(static_cast<size_t>(in_dim) * out_dim, '\x05');
  const uint64_t length = section.size() + length_error;
  std::string body = bytes.substr(16);
  body.back() = 1;  // The flag.
  body.append(reinterpret_cast<const char*>(&length), sizeof(length));
  body += section;
  return RepackArtifact(bytes, 2, std::move(body));
}

TEST(ArtifactQuantizedTest, LegacyQuantizedSectionIsSkippedAndServesFloat) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("LSTM", 7, 0.2);
  model->Fit(CycleData(3, 40), pois);
  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois, &error)) << error;
  const std::string bytes = artifact.str();

  LoadedModel plain;
  ASSERT_TRUE(LoadArtifact(artifact, &plain, &error)) << error;
  std::stringstream twin(LegacyQuantizedTwin(bytes, 0),
                         std::ios::in | std::ios::out | std::ios::binary);
  LoadedModel legacy;
  ASSERT_TRUE(LoadArtifact(twin, &legacy, &error)) << error;
  EXPECT_EQ(legacy.name, plain.name);
  for (int32_t user = 0; user < 3; ++user) {
    EXPECT_EQ(TopKTrace(*legacy.model, user, 12),
              TopKTrace(*plain.model, user, 12))
        << "user " << user;
  }

  // The section must fill the rest of the body exactly.
  for (int64_t length_error : {-1, 1}) {
    std::stringstream bad(LegacyQuantizedTwin(bytes, length_error),
                          std::ios::in | std::ios::out | std::ios::binary);
    EXPECT_FALSE(LoadArtifact(bad, &legacy, &error)) << length_error;
    EXPECT_EQ(error, "truncated artifact (quantized section)")
        << length_error;
  }
}

TEST(ArtifactQuantizedTest, UnquantizedModelsWriteFlagZero) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("LSTM", 7, 0.2);
  model->Fit(CycleData(2, 30), pois);
  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois, &error)) << error;
  const std::string bytes = artifact.str();
  ASSERT_EQ(bytes.back(), '\0');  // v2 trailer: quantized flag 0.
  LoadedModel loaded;
  ASSERT_TRUE(LoadArtifact(artifact, &loaded, &error)) << error;
}

TEST(ArtifactQuantizedTest, V1ArtifactsStillLoad) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("LSTM", 7, 0.2);
  model->Fit(CycleData(2, 30), pois);
  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois, &error)) << error;

  // A v1 file is the same bytes minus the trailing quantized flag: strip
  // it, stamp version 1, re-checksum. This is exactly what a pre-v2 writer
  // produced.
  const std::string bytes = artifact.str();
  std::string body = bytes.substr(16);
  ASSERT_EQ(body.back(), '\0');
  body.pop_back();
  std::stringstream v1(RepackArtifact(bytes, 1, std::move(body)),
                       std::ios::in | std::ios::out | std::ios::binary);
  LoadedModel loaded;
  ASSERT_TRUE(LoadArtifact(v1, &loaded, &error)) << error;
  EXPECT_EQ(TopKTrace(*model, 0, 8), TopKTrace(*loaded.model, 0, 8));
}

TEST(ArtifactQuantizedTest, RejectsBadQuantizedFlagAndFutureVersion) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("LSTM", 7, 0.2);
  model->Fit(CycleData(2, 30), pois);
  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois, &error)) << error;
  const std::string bytes = artifact.str();

  // Flag byte outside {0, 1} — checksum fixed up so the flag check itself
  // must reject it.
  std::string body = bytes.substr(16);
  body.back() = 2;
  std::stringstream bad_flag(RepackArtifact(bytes, 2, body),
                             std::ios::in | std::ios::out | std::ios::binary);
  LoadedModel loaded;
  EXPECT_FALSE(LoadArtifact(bad_flag, &loaded, &error));
  EXPECT_NE(error.find("quantized flag"), std::string::npos) << error;

  // A version this build has never heard of must be refused outright.
  std::stringstream future(RepackArtifact(bytes, 3, bytes.substr(16)),
                           std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_FALSE(LoadArtifact(future, &loaded, &error));
  EXPECT_NE(error.find("unsupported artifact version"), std::string::npos)
      << error;
}

// A POI coordinate that is not finite or lies off the globe is refused by
// name, even when the checksum holds; the bounds themselves load.
TEST(ArtifactTest, LoadRejectsCoordinatesOffTheGlobe) {
  poi::PoiTable pois = SmallPois();
  auto model = rec::MakeRecommender("FPMC-LR", 7, 0.2);
  model->Fit(CycleData(2, 30), pois);
  std::stringstream artifact(std::ios::in | std::ios::out | std::ios::binary);
  std::string error;
  ASSERT_TRUE(SaveArtifact(artifact, *model, pois, &error)) << error;
  const std::string bytes = artifact.str();

  // Body: u64 name length, the name, i32 POI count, then per POI f64 lat,
  // f64 lng and i64 popularity.
  const std::string body = bytes.substr(16);
  uint64_t name_len = 0;
  std::memcpy(&name_len, body.data(), sizeof(name_len));
  const size_t poi3 = sizeof(uint64_t) + name_len + sizeof(int32_t) + 3 * 24;
  auto with_coord = [&](double lat, double lng) {
    std::string mutated = body;
    std::memcpy(mutated.data() + poi3, &lat, sizeof(lat));
    std::memcpy(mutated.data() + poi3 + 8, &lng, sizeof(lng));
    return std::stringstream(RepackArtifact(bytes, 2, std::move(mutated)),
                             std::ios::in | std::ios::out | std::ios::binary);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const geo::LatLng bad[] = {{nan, -100.0}, {40.0, nan},   {inf, -100.0},
                             {40.0, -inf},  {90.5, -100.0}, {-91.0, -100.0},
                             {40.0, 180.5}, {40.0, -181.0}};
  for (const geo::LatLng& c : bad) {
    std::stringstream in = with_coord(c.lat, c.lng);
    LoadedModel loaded;
    EXPECT_FALSE(LoadArtifact(in, &loaded, &error)) << c.ToString();
    EXPECT_NE(error.find("POI 3"), std::string::npos) << error;
  }
  for (const geo::LatLng& c : {geo::LatLng{90.0, 180.0},
                               geo::LatLng{-90.0, -180.0}}) {
    std::stringstream in = with_coord(c.lat, c.lng);
    LoadedModel loaded;
    ASSERT_TRUE(LoadArtifact(in, &loaded, &error)) << error;
    EXPECT_EQ(loaded.pois->coord(3), c);
  }
}

// --- Registry satellite behaviours. ----------------------------------------

TEST(RegistryTest, MakeRecommenderIsCaseInsensitive) {
  for (const char* name : {"lstm", "Lstm", "LSTM", "fpmc-lr", "st-clstm"}) {
    EXPECT_NE(rec::MakeRecommender(name), nullptr) << name;
  }
  EXPECT_EQ(rec::MakeRecommender("definitely-not-a-model"), nullptr);
}

TEST(RegistryTest, KnownNamesStringListsEveryName) {
  const std::string joined = rec::KnownRecommenderNamesString();
  for (const std::string& name : rec::KnownRecommenderNames()) {
    EXPECT_NE(joined.find(name), std::string::npos) << name;
  }
}

TEST(RegistryTest, LoadRecommenderReportsUnknownNameWithKnownList) {
  poi::PoiTable pois = SmallPois();
  std::stringstream empty;
  std::string error;
  EXPECT_EQ(rec::LoadRecommender("nope", empty, pois, &error), nullptr);
  EXPECT_NE(error.find("unknown recommender"), std::string::npos) << error;
  EXPECT_NE(error.find("FPMC-LR"), std::string::npos) << error;
  EXPECT_NE(error.find("ST-CLSTM"), std::string::npos) << error;
}

}  // namespace
}  // namespace pa::serve
