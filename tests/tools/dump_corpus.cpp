//===- tests/tools/dump_corpus.cpp - Write the probe corpus to disk -------===//
//
// Writes the programs scripts/diffprobe.sh feeds to two CLI builds, one
// Pascal file each:
//   paper-<Name>.pas     every program of frontend/PaperPrograms.h
//   mccarthy-<k>.pas     McCarthy_k for k = 9, 12, ..., 24
//   <family>-<seed>.pas  RandomProgramGen with assertions, seeds 1..SEEDS,
//                        each of the four corpus families
//
// Usage: dump_corpus OUTDIR [SEEDS]   (SEEDS defaults to 200)
//
//===----------------------------------------------------------------------===//

#include "../common/RandomProgramGen.h"
#include "frontend/PaperPrograms.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

using namespace syntox;

static bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out) {
    std::fprintf(stderr, "dump_corpus: cannot write '%s'\n", Path.c_str());
    return false;
  }
  return true;
}

int main(int Argc, char **Argv) {
  if (Argc < 2 || Argc > 3) {
    std::fprintf(stderr, "usage: dump_corpus OUTDIR [SEEDS]\n");
    return 2;
  }
  std::string Dir = Argv[1];
  unsigned Seeds = Argc == 3 ? static_cast<unsigned>(std::atoi(Argv[2])) : 200;

  static const struct {
    const char *Name;
    const char *Source;
  } Paper[] = {
      {"For", paper::ForProgram},
      {"For1ToN", paper::ForProgram1ToN},
      {"While", paper::WhileProgram},
      {"Fact", paper::FactProgram},
      {"Select", paper::SelectProgram},
      {"Intermittent", paper::IntermittentProgram},
      {"IntermittentPlain", paper::IntermittentProgramPlain},
      {"McCarthy", paper::McCarthyProgram},
      {"McCarthyWithInvariant", paper::McCarthyWithInvariant},
      {"McCarthyBuggy", paper::McCarthyBuggy},
      {"BinarySearch", paper::BinarySearchProgram},
      {"Ackermann", paper::AckermannProgram},
      {"QuickSort", paper::QuickSortProgram},
      {"HeapSort", paper::HeapSortProgram},
      {"BubbleSort", paper::BubbleSortProgram},
      {"Matrix", paper::MatrixProgram},
      {"Shuttle", paper::ShuttleProgram},
      {"StrideSearch", paper::StrideSearchProgram},
      {"StrideSort", paper::StrideSortProgram},
  };
  unsigned Written = 0;
  for (const auto &P : Paper) {
    if (!writeFile(Dir + "/paper-" + P.Name + ".pas", P.Source))
      return 1;
    ++Written;
  }
  for (unsigned K = 9; K <= 24; K += 3) {
    if (!writeFile(Dir + "/mccarthy-" + std::to_string(K) + ".pas",
                   paper::mcCarthyK(K)))
      return 1;
    ++Written;
  }
  using Gen = test::ProgramGenerator;
  for (Gen::Family F : {Gen::Family::Plain, Gen::Family::GotoHeavy,
                        Gen::Family::DeepUnfolding,
                        Gen::Family::AliasingHeavy})
    for (unsigned Seed = 1; Seed <= Seeds; ++Seed) {
      Gen G(Seed, /*WithAssertions=*/true);
      if (!writeFile(Dir + "/" + Gen::familyName(F) + "-" +
                         std::to_string(Seed) + ".pas",
                     G.generate(F)))
        return 1;
      ++Written;
    }
  std::printf("%u programs\n", Written);
  return 0;
}
