/**
 * @file
 * Pauli-string observables and expectation values. The chemistry
 * workloads (hchain) are Trotterized evolutions of Pauli Hamiltonians;
 * this module evaluates <psi| H |psi> on a final state.
 */

#ifndef QGPU_STATEVEC_OBSERVABLE_HH
#define QGPU_STATEVEC_OBSERVABLE_HH

#include <string>
#include <vector>

#include "statevec/state_vector.hh"

namespace qgpu
{

/** Single-qubit Pauli operator. */
enum class Pauli : char { I = 'I', X = 'X', Y = 'Y', Z = 'Z' };

/**
 * A tensor product of Pauli operators over selected qubits, e.g.
 * Z0 Z1 or X2 Y5.
 */
class PauliString
{
  public:
    PauliString() = default;

    /**
     * Parse a compact spec like "ZZ" applied at @p start_qubit, or
     * build explicitly with add().
     */
    PauliString(const std::string &ops, int start_qubit = 0);

    /** Add operator @p op on qubit @p qubit. */
    PauliString &add(Pauli op, int qubit);

    const std::vector<std::pair<int, Pauli>> &terms() const
    { return terms_; }

    /** Largest qubit referenced; -1 when identity. */
    int maxQubit() const;

    /**
     * <psi| P |psi> for this Pauli string. Always real (Pauli strings
     * are Hermitian); computed in one pass over the state.
     */
    double expectation(const StateVector &state) const;

    /** Printable form, e.g. "X0*Z3". */
    std::string toString() const;

  private:
    std::vector<std::pair<int, Pauli>> terms_;
};

/**
 * A Hermitian observable: a real-weighted sum of Pauli strings, e.g.
 * a transverse-field Ising chain Hamiltonian.
 */
class Observable
{
  public:
    /** Add @p coefficient * @p pauli to the sum. */
    Observable &add(double coefficient, PauliString pauli);

    std::size_t numTerms() const { return terms_.size(); }

    /** <psi| H |psi>. */
    double expectation(const StateVector &state) const;

    /**
     * Transverse-field Ising chain on @p num_qubits sites:
     * -J sum Z_i Z_{i+1} - h sum X_i. The hchain benchmark's layers
     * are one Trotter step of exactly this family.
     */
    static Observable isingChain(int num_qubits, double coupling_j,
                                 double field_h);

  private:
    std::vector<std::pair<double, PauliString>> terms_;
};

} // namespace qgpu

#endif // QGPU_STATEVEC_OBSERVABLE_HH
