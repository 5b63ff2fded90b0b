#include "poi/csv.h"

#include <charconv>
#include <fstream>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <system_error>
#include <vector>

#include "geo/latlng.h"

namespace pa::poi {

bool SaveCheckinsCsv(std::ostream& os, const Dataset& dataset) {
  os << std::setprecision(12);  // Coordinates survive a round trip.
  for (const auto& seq : dataset.sequences) {
    for (const Checkin& c : seq) {
      const geo::LatLng& p = dataset.pois.coord(c.poi);
      os << c.user << ',' << c.timestamp << ',' << p.lat << ',' << p.lng
         << ',' << c.poi << '\n';
    }
  }
  return static_cast<bool>(os);
}

bool SaveCheckinsCsvFile(const std::string& path, const Dataset& dataset) {
  std::ofstream os(path);
  return os && SaveCheckinsCsv(os, dataset);
}

namespace {

// Splits on tab if present, otherwise comma.
std::vector<std::string> SplitFields(const std::string& line) {
  const char sep = line.find('\t') != std::string::npos ? '\t' : ',';
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, sep)) fields.push_back(field);
  return fields;
}

// Parses the ENTIRE field as a number. Unlike std::stoll/std::stod — which
// accept leading whitespace and silently ignore trailing garbage, so a
// corrupt field like "12abc" used to load as 12 — this rejects partial
// matches, empty fields, and out-of-range values.
template <typename T>
bool ParseField(const std::string& field, T* out) {
  const char* first = field.data();
  const char* last = field.data() + field.size();
  if (first == last) return false;
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

constexpr const char* kFieldNames[5] = {"user", "timestamp", "lat", "lng",
                                        "poi"};

void FieldError(std::string* why, int lineno, int field_idx,
                const std::string& field, const char* what) {
  if (why == nullptr) return;
  *why = "line " + std::to_string(lineno) + ": field " +
         std::to_string(field_idx + 1) + " (" + kFieldNames[field_idx] +
         ") is not " + what + ": \"" + field + "\"";
}

}  // namespace

bool LoadCheckinsCsv(std::istream& is, Dataset* dataset, std::string* why) {
  struct RawRecord {
    int64_t user, timestamp, poi;
    geo::LatLng coord;
  };
  std::vector<RawRecord> records;
  std::map<int64_t, int32_t> user_ids;
  std::map<int64_t, int32_t> poi_ids;
  std::map<int64_t, geo::LatLng> poi_coords;

  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // Files written on Windows (or fetched in binary mode) end lines with
    // \r\n; getline leaves the \r on the last field, which used to make
    // every row of a CRLF file fail to parse.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto fields = SplitFields(line);
    if (fields.size() != 5) {
      if (why) {
        *why = "line " + std::to_string(lineno) + ": expected 5 fields, got " +
               std::to_string(fields.size());
      }
      return false;
    }
    RawRecord r;
    int64_t* const int_slots[5] = {&r.user, &r.timestamp, nullptr, nullptr,
                                   &r.poi};
    double* const real_slots[5] = {nullptr, nullptr, &r.coord.lat,
                                   &r.coord.lng, nullptr};
    bool ok = true;
    for (int f = 0; f < 5 && ok; ++f) {
      ok = int_slots[f] != nullptr ? ParseField(fields[f], int_slots[f])
                                   : ParseField(fields[f], real_slots[f]);
      if (!ok) FieldError(why, lineno, f, fields[f], "a valid number");
    }
    if (!ok) return false;
    // from_chars accepts "nan" and "inf", and nothing bounds a number; a
    // coordinate off the globe would sit at a bogus distance from every POI.
    if (!geo::IsValidLat(r.coord.lat)) {
      FieldError(why, lineno, 2, fields[2], "a latitude in [-90, 90]");
      return false;
    }
    if (!geo::IsValidLng(r.coord.lng)) {
      FieldError(why, lineno, 3, fields[3], "a longitude in [-180, 180]");
      return false;
    }
    records.push_back(r);
    user_ids.emplace(r.user, 0);
    if (poi_ids.emplace(r.poi, 0).second) poi_coords[r.poi] = r.coord;
  }

  // Densify ids in sorted order for determinism.
  int32_t next = 0;
  for (auto& [raw, dense] : user_ids) dense = next++;
  next = 0;
  for (auto& [raw, dense] : poi_ids) dense = next++;

  Dataset out;
  std::vector<geo::LatLng> coords(poi_ids.size());
  for (const auto& [raw, dense] : poi_ids) coords[dense] = poi_coords[raw];
  out.pois = PoiTable(std::move(coords));
  out.sequences.resize(user_ids.size());
  for (const RawRecord& r : records) {
    Checkin c;
    c.user = user_ids[r.user];
    c.poi = poi_ids[r.poi];
    c.timestamp = r.timestamp;
    out.sequences[c.user].push_back(c);
  }
  for (auto& seq : out.sequences) SortChronological(seq);
  out.RecountPopularity();
  *dataset = std::move(out);
  return true;
}

bool LoadCheckinsCsvFile(const std::string& path, Dataset* dataset,
                         std::string* why) {
  std::ifstream is(path);
  if (!is) {
    if (why) *why = "cannot open " + path;
    return false;
  }
  return LoadCheckinsCsv(is, dataset, why);
}

}  // namespace pa::poi
