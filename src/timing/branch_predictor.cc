#include "branch_predictor.hh"

#include "support/logging.hh"

namespace splab
{

GsharePredictor::GsharePredictor(u32 historyBits)
{
    SPLAB_ASSERT(historyBits >= kMinHistoryBits &&
                     historyBits <= kMaxHistoryBits,
                 "gshare history bits out of range: ", historyBits);
    table.assign(1ULL << historyBits, 1); // weakly not-taken
    mask = (1ULL << historyBits) - 1;
}

bool
GsharePredictor::predict(Addr pc) const
{
    return table[index(pc)] >= 2;
}

bool
GsharePredictor::update(Addr pc, bool taken)
{
    u64 i = index(pc);
    bool predicted = table[i] >= 2;
    bool correct = predicted == taken;

    if (taken && table[i] < 3)
        ++table[i];
    else if (!taken && table[i] > 0)
        --table[i];
    history = ((history << 1) | (taken ? 1 : 0)) & mask;

    if (!warming) {
        ++nLookups;
        if (!correct)
            ++nMispredicts;
    }
    return correct;
}

void
GsharePredictor::reset()
{
    table.assign(table.size(), 1);
    history = 0;
}

TournamentPredictor::TournamentPredictor(u32 historyBits)
{
    SPLAB_ASSERT(historyBits >= kMinHistoryBits &&
                     historyBits <= kMaxHistoryBits,
                 "predictor history bits out of range: ",
                 historyBits);
    std::size_t n = 1ULL << historyBits;
    bimodal.assign(n, 1);
    gshare.assign(n, 1);
    chooser.assign(n, 1); // prefer bimodal when cold
    mask = n - 1;
}

bool
TournamentPredictor::predict(Addr pc) const
{
    bool pB = bimodal[pcIndex(pc)] >= 2;
    bool pG = gshare[gIndex(pc)] >= 2;
    return chooser[pcIndex(pc)] >= 2 ? pG : pB;
}

bool
TournamentPredictor::update(Addr pc, bool taken)
{
    u64 iP = pcIndex(pc);
    u64 iG = gIndex(pc);
    bool pB = bimodal[iP] >= 2;
    bool pG = gshare[iG] >= 2;
    bool chosen = chooser[iP] >= 2 ? pG : pB;
    bool correct = chosen == taken;

    // Chooser trains only when the components disagree.
    if (pB != pG)
        train(chooser[iP], pG == taken);
    train(bimodal[iP], taken);
    train(gshare[iG], taken);
    history = ((history << 1) | (taken ? 1 : 0)) & mask;

    if (!warming) {
        ++nLookups;
        if (!correct)
            ++nMispredicts;
    }
    return correct;
}

void
TournamentPredictor::reset()
{
    bimodal.assign(bimodal.size(), 1);
    gshare.assign(gshare.size(), 1);
    chooser.assign(chooser.size(), 1);
    history = 0;
}

} // namespace splab
