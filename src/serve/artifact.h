#ifndef PA_SERVE_ARTIFACT_H_
#define PA_SERVE_ARTIFACT_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "poi/poi_table.h"
#include "rec/recommender.h"

namespace pa::serve {

/// A model as loaded for serving: the recommender plus the POI universe it
/// was fitted on. Artifacts are *self-contained* — the POI table is embedded
/// in the file — so a serving process needs nothing but the artifact.
struct LoadedModel {
  std::string name;  // Registry name, e.g. "LSTM" (also the store name).
  // `pois` is declared before `model` so it is destroyed last: the
  // recommender holds a raw pointer into the table.
  std::shared_ptr<poi::PoiTable> pois;
  std::shared_ptr<rec::Recommender> model;
};

/// Serving artifact container, format v2 (v1 still loads):
///
///   [u32 magic "PASV"] [u32 container version]
///   [u64 FNV-1a checksum of every byte that follows]
///   [u64 name length][name bytes]            — registry name for reload
///   [i32 POI count] {f64 lat, f64 lng, i64 popularity} * count
///   [u64 payload length][payload bytes]      — Recommender::Save stream
///   [u8 quantized flag]                      — v2 only; if 1:
///   [u64 section length][section bytes]      —   legacy int8 section
///
/// `SaveArtifact` always writes flag 0. Publishers before int8 serving was
/// retired wrote flag 1 and an int8 copy of the output projection after
/// it; this loader checks that section's length against the bytes left,
/// skips it and serves the float payload. v1 files are the same bytes
/// minus the flag, and this loader accepts them unchanged; a v1 reader
/// cannot misparse a v2 file, because the version field precedes
/// everything.
///
/// The checksum covers the name, POI block, model payload and trailer, so
/// any truncation or bit-flip after the header is caught before the
/// payload parser runs. (The payload itself carries a second, nn-level
/// checksum — redundant by design: the container check localises corruption
/// to "the artifact file", the inner check to "the parameter blob".)
bool SaveArtifact(std::ostream& os, const rec::Recommender& model,
                  const poi::PoiTable& pois, std::string* error = nullptr);

/// Restores an artifact written by `SaveArtifact`. On success `out` owns a
/// fresh POI table and a recommender wired to it. Returns false (with a
/// reason in `error`) on bad magic, unsupported version, checksum mismatch,
/// truncation, or a payload `rec::LoadRecommender` rejects.
bool LoadArtifact(std::istream& is, LoadedModel* out,
                  std::string* error = nullptr);

}  // namespace pa::serve

#endif  // PA_SERVE_ARTIFACT_H_
