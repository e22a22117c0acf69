/**
 * @file
 * The MiniC type system.
 *
 * MiniC is the small C-like language our workloads are written in, so
 * that the whole pipeline — compile, SHIFT-instrument, execute — is
 * exercised the way the paper exercised GCC + SPEC. Types:
 *
 *   void, char (1 byte, unsigned), int (4 bytes, signed),
 *   long (8 bytes, signed), T* (8 bytes), T[N].
 *
 * `int` is 4 bytes on purpose: SPEC-INT code is dominated by 4-byte
 * accesses, and sub-word accesses are what make byte-granularity taint
 * tracking more expensive than word-granularity (paper figure 7).
 * Register semantics are 64-bit; narrowing happens at stores and
 * sign/zero-extension at loads, as on IA-64.
 */

#ifndef SHIFT_LANG_TYPE_HH
#define SHIFT_LANG_TYPE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace shift::minic
{

/** Type kinds. */
enum class TypeKind : uint8_t
{
    Void, Char, Int, Long, Ptr, Array,
};

/** An immutable type node. Types are interned by the TypePool. */
struct Type
{
    TypeKind kind = TypeKind::Int;
    const Type *elem = nullptr; ///< pointee / array element
    uint64_t count = 0;         ///< array element count

    bool isVoid() const { return kind == TypeKind::Void; }
    bool isPointer() const { return kind == TypeKind::Ptr; }
    bool isArray() const { return kind == TypeKind::Array; }
    bool isInteger() const
    {
        return kind == TypeKind::Char || kind == TypeKind::Int ||
               kind == TypeKind::Long;
    }
    /** True for signed integer types (char is unsigned in MiniC). */
    bool isSigned() const
    {
        return kind == TypeKind::Int || kind == TypeKind::Long;
    }

    /** Storage size in bytes. */
    uint64_t size() const;

    /** Printable name ("char*", "int[10]"). */
    std::string name() const;
};

/** Owns and interns Type nodes. */
class TypePool
{
  public:
    TypePool();

    const Type *voidType() const { return &void_; }
    const Type *charType() const { return &char_; }
    const Type *intType() const { return &int_; }
    const Type *longType() const { return &long_; }

    /** Pointer to elem. */
    const Type *ptr(const Type *elem);

    /** Array of count elems. */
    const Type *array(const Type *elem, uint64_t count);

  private:
    Type void_, char_, int_, long_;
    std::vector<std::unique_ptr<Type>> derived_;
};

/** Return type of each function, by name: what calling code needs. */
using Signatures = std::map<std::string, const Type *>;

} // namespace shift::minic

#endif // SHIFT_LANG_TYPE_HH
