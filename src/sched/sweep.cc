#include "sched/sweep.hh"

#include <algorithm>

#include "common/logging.hh"

namespace qgpu
{

std::vector<int>
gateGlobalBits(const Gate &gate, int chunk_bits)
{
    std::vector<int> bits;
    if (gate.isDiagonal())
        return bits;
    for (int q : gate.qubits)
        if (q >= chunk_bits)
            bits.push_back(q - chunk_bits);
    std::sort(bits.begin(), bits.end());
    return bits;
}

Sweep
nextSweep(std::span<const Gate> gates, std::size_t begin,
          int chunk_bits, const InvolvementMask *mask,
          std::span<const std::uint64_t> noise_bits)
{
    if (begin >= gates.size())
        QGPU_PANIC("sweep start ", begin, " past the ", gates.size(),
                   "-gate sequence");
    if (!noise_bits.empty() && noise_bits.size() < gates.size())
        QGPU_PANIC("noise_bits covers ", noise_bits.size(),
                   " of ", gates.size(), " gates");

    Sweep sweep;
    sweep.begin = begin;
    sweep.end = begin;
    // Involvement bits already accounted for; rule 3 closes the sweep
    // after the first gate that adds to this set, or whose noise can.
    const std::uint64_t involved = mask ? mask->bits() : 0;

    for (std::size_t i = begin; i < gates.size(); ++i) {
        const Gate &gate = gates[i];
        const std::vector<int> bits = gateGlobalBits(gate, chunk_bits);
        if (!bits.empty()) {
            if (sweep.globalBits.empty())
                sweep.globalBits = bits; // first cross-chunk gate
            else if (bits != sweep.globalBits)
                break; // pairing change: new partition, new sweep
        }
        sweep.end = i + 1;
        if (mask) {
            const std::uint64_t add =
                gateInvolvementBits(gate, mask->policy()) & ~involved;
            if (add != 0)
                break; // involvement boundary: gate closes its sweep
            if (!noise_bits.empty() && (noise_bits[i] & ~involved) != 0)
                break; // gate's noise can arm a new qubit
        }
    }
    return sweep;
}

std::vector<Sweep>
scheduleSweeps(std::span<const Gate> gates, int chunk_bits,
               InvolvementMask *mask)
{
    std::vector<Sweep> sweeps;
    std::size_t at = 0;
    while (at < gates.size()) {
        Sweep sweep = nextSweep(gates, at, chunk_bits, mask);
        at = sweep.end;
        if (mask)
            for (std::size_t i = sweep.begin; i < sweep.end; ++i)
                mask->involve(gates[i]);
        sweeps.push_back(std::move(sweep));
    }
    return sweeps;
}

} // namespace qgpu
