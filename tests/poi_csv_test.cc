#include "poi/csv.h"

#include <sstream>

#include <gtest/gtest.h>

#include "poi/synthetic.h"
#include "util/rng.h"

namespace pa::poi {
namespace {

TEST(CsvTest, ParsesCommaSeparated) {
  std::istringstream is(
      "7,1000,40.5,-100.25,55\n"
      "7,2000,40.6,-100.35,66\n"
      "9,1500,40.7,-100.45,55\n");
  Dataset d;
  std::string why;
  ASSERT_TRUE(LoadCheckinsCsv(is, &d, &why)) << why;
  EXPECT_EQ(d.num_users(), 2);
  EXPECT_EQ(d.num_pois(), 2);
  EXPECT_EQ(d.num_checkins(), 3);
  EXPECT_TRUE(d.Validate(&why)) << why;
}

TEST(CsvTest, ParsesTabSeparatedSnapLayout) {
  std::istringstream is("0\t1287530127\t30.23\t-97.79\t22847\n");
  Dataset d;
  std::string why;
  ASSERT_TRUE(LoadCheckinsCsv(is, &d, &why)) << why;
  EXPECT_EQ(d.num_checkins(), 1);
  EXPECT_NEAR(d.pois.coord(0).lat, 30.23, 1e-9);
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  std::istringstream is(
      "# header comment\n"
      "\n"
      "1,100,40.0,-100.0,5\n");
  Dataset d;
  ASSERT_TRUE(LoadCheckinsCsv(is, &d, nullptr));
  EXPECT_EQ(d.num_checkins(), 1);
}

TEST(CsvTest, RejectsWrongFieldCount) {
  std::istringstream is("1,100,40.0\n");
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why));
  EXPECT_NE(why.find("line 1"), std::string::npos);
}

TEST(CsvTest, RejectsNonNumeric) {
  std::istringstream is("1,abc,40.0,-100.0,5\n");
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why));
}

TEST(CsvTest, RejectsTrailingGarbageInField) {
  // std::stoll-based parsing accepted "12abc" as 12; whole-field validation
  // must reject it and name the offending field.
  std::istringstream is("12abc,100,40.0,-100.0,5\n");
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why));
  EXPECT_NE(why.find("line 1"), std::string::npos);
  EXPECT_NE(why.find("user"), std::string::npos);
  EXPECT_NE(why.find("12abc"), std::string::npos);
}

TEST(CsvTest, RejectsTrailingGarbageInCoordinate) {
  std::istringstream is("1,100,40.0x,-100.0,5\n");
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why));
  EXPECT_NE(why.find("lat"), std::string::npos);
}

TEST(CsvTest, RejectsEmptyField) {
  std::istringstream is("1,,40.0,-100.0,5\n");
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why));
  EXPECT_NE(why.find("timestamp"), std::string::npos);
}

TEST(CsvTest, RejectsLeadingWhitespaceInField) {
  // stoll also used to skip leading whitespace; the format has none.
  std::istringstream is("1, 100,40.0,-100.0,5\n");
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why));
}

TEST(CsvTest, ParsesCrlfLineEndings) {
  // Windows-written files carry \r\n; the \r must not corrupt the last
  // field (it used to make every row unparseable).
  std::istringstream is(
      "7,1000,40.5,-100.25,55\r\n"
      "7,2000,40.6,-100.35,66\r\n");
  Dataset d;
  std::string why;
  ASSERT_TRUE(LoadCheckinsCsv(is, &d, &why)) << why;
  EXPECT_EQ(d.num_checkins(), 2);
  EXPECT_EQ(d.num_pois(), 2);
}

TEST(CsvTest, ParsesCrlfTabSeparated) {
  std::istringstream is("0\t1287530127\t30.23\t-97.79\t22847\r\n");
  Dataset d;
  std::string why;
  ASSERT_TRUE(LoadCheckinsCsv(is, &d, &why)) << why;
  EXPECT_EQ(d.num_checkins(), 1);
}

TEST(CsvTest, RejectsNegativeOverflow) {
  std::istringstream is("99999999999999999999999,100,40.0,-100.0,5\n");
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why));
  EXPECT_NE(why.find("user"), std::string::npos);
}

// from_chars reads "nan", "inf" and "infinity", and a number may lie off
// the globe; every such coordinate is refused with its line and field.
TEST(CsvTest, RejectsNonFiniteAndOutOfRangeCoordinates) {
  for (const char* lat : {"nan", "-nan", "inf", "-inf", "infinity", "90.5",
                          "-91", "180.5", "-181"}) {
    std::istringstream is("1,100,40.0,-100.0,5\n1,200," + std::string(lat) +
                          ",-100.0,6\n");
    Dataset d;
    std::string why;
    EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why)) << lat;
    EXPECT_NE(why.find("line 2: field 3 (lat)"), std::string::npos)
        << lat << ": " << why;
    EXPECT_NE(why.find(lat), std::string::npos) << lat << ": " << why;
  }
  for (const char* lng :
       {"nan", "-nan", "inf", "-inf", "infinity", "180.5", "-181"}) {
    std::istringstream is("1,100,40.0,-100.0,5\n1,200,40.0," +
                          std::string(lng) + ",6\n");
    Dataset d;
    std::string why;
    EXPECT_FALSE(LoadCheckinsCsv(is, &d, &why)) << lng;
    EXPECT_NE(why.find("line 2: field 4 (lng)"), std::string::npos)
        << lng << ": " << why;
  }
}

TEST(CsvTest, LoadsCoordinatesOnTheRangeBounds) {
  std::istringstream is(
      "1,100,90,180,5\n"
      "1,200,-90,-180,6\n"
      "1,300,-90.0,180.0,7\n");
  Dataset d;
  std::string why;
  ASSERT_TRUE(LoadCheckinsCsv(is, &d, &why)) << why;
  ASSERT_EQ(d.num_pois(), 3);
  EXPECT_EQ(d.pois.coord(0), (geo::LatLng{90.0, 180.0}));
  EXPECT_EQ(d.pois.coord(1), (geo::LatLng{-90.0, -180.0}));
  EXPECT_EQ(d.pois.coord(2), (geo::LatLng{-90.0, 180.0}));
}

TEST(CsvTest, SortsOutOfOrderRecords) {
  std::istringstream is(
      "1,300,40.0,-100.0,5\n"
      "1,100,40.1,-100.1,6\n");
  Dataset d;
  ASSERT_TRUE(LoadCheckinsCsv(is, &d, nullptr));
  EXPECT_TRUE(IsChronological(d.sequences[0]));
  EXPECT_EQ(d.sequences[0][0].timestamp, 100);
}

TEST(CsvTest, RoundTripPreservesEverything) {
  util::Rng rng(5);
  LbsnProfile profile = GowallaProfile();
  profile.num_users = 6;
  profile.num_pois = 60;
  profile.min_visits = 20;
  profile.max_visits = 30;
  Dataset original = GenerateLbsn(profile, rng).observed;

  std::stringstream buf;
  ASSERT_TRUE(SaveCheckinsCsv(buf, original));
  Dataset loaded;
  std::string why;
  ASSERT_TRUE(LoadCheckinsCsv(buf, &loaded, &why)) << why;

  EXPECT_EQ(loaded.num_users(), original.num_users());
  EXPECT_EQ(loaded.num_checkins(), original.num_checkins());
  // POI ids may be renumbered, but per-user POI coordinates must match in
  // sequence order.
  for (int u = 0; u < original.num_users(); ++u) {
    ASSERT_EQ(loaded.sequences[u].size(), original.sequences[u].size());
    for (size_t i = 0; i < original.sequences[u].size(); ++i) {
      const auto& a = original.sequences[u][i];
      const auto& b = loaded.sequences[u][i];
      EXPECT_EQ(a.timestamp, b.timestamp);
      EXPECT_NEAR(original.pois.coord(a.poi).lat,
                  loaded.pois.coord(b.poi).lat, 1e-6);
      EXPECT_NEAR(original.pois.coord(a.poi).lng,
                  loaded.pois.coord(b.poi).lng, 1e-6);
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  Dataset d;
  d.pois = PoiTable({{40.0, -100.0}});
  d.sequences.resize(1);
  d.sequences[0].push_back({0, 0, 123, false});
  const std::string path = ::testing::TempDir() + "/checkins.csv";
  ASSERT_TRUE(SaveCheckinsCsvFile(path, d));
  Dataset loaded;
  std::string why;
  ASSERT_TRUE(LoadCheckinsCsvFile(path, &loaded, &why)) << why;
  EXPECT_EQ(loaded.num_checkins(), 1);
}

TEST(CsvTest, MissingFileFails) {
  Dataset d;
  std::string why;
  EXPECT_FALSE(LoadCheckinsCsvFile("/does/not/exist.csv", &d, &why));
  EXPECT_NE(why.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace pa::poi
