let bits_per_word = 63

type t = {
  bits : int;
  words : int array;
}

let create bits = { bits; words = Array.make ((bits + bits_per_word - 1) / bits_per_word) 0 }

let check t i = if i < 0 || i >= t.bits then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let clear t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

(* A top-level recursion, not [Array.for_all]: its local loop is a
   closure allocated on every call, and the cycle loop asks this once
   per stepped cycle. *)
let rec all_zero words i = i < 0 || (words.(i) = 0 && all_zero words (i - 1))

let is_empty t = all_zero t.words (Array.length t.words - 1)

let same_width a b = if a.bits <> b.bits then invalid_arg "Bitset: width mismatch"

let diff_into ~a ~b ~dst =
  same_width a b;
  same_width a dst;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land lnot b.words.(i)
  done

(* Number of trailing zeros of a single-bit word, by binary search
   (straight-line: a [ref] here would be a 2-word allocation per call). *)
let bit_index bit =
  let s5 = if bit land 0x7FFFFFFF = 0 then 31 else 0 in
  let b = bit lsr s5 in
  let s4 = if b land 0xFFFF = 0 then 16 else 0 in
  let b = b lsr s4 in
  let s3 = if b land 0xFF = 0 then 8 else 0 in
  let b = b lsr s3 in
  let s2 = if b land 0xF = 0 then 4 else 0 in
  let b = b lsr s2 in
  let s1 = if b land 0x3 = 0 then 2 else 0 in
  let b = b lsr s1 in
  s5 + s4 + s3 + s2 + s1 + (if b land 0x1 = 0 then 1 else 0)

(* Kernighan popcount on one word; the 64-bit SWAR constants don't fit
   OCaml's 63-bit immediates, and the word population is small here. *)
let rec popcount w acc = if w = 0 then acc else popcount (w land (w - 1)) (acc + 1)

let rec count_words words wi acc =
  if wi < 0 then acc else count_words words (wi - 1) (popcount words.(wi) acc)

let count t = count_words t.words (Array.length t.words - 1) 0

(* The scan helpers below live at top level and thread every piece of
   state through their arguments: without flambda, a local [let rec]
   that captures its environment allocates a closure block on the minor
   heap at every call of the enclosing function, and these run in the
   per-cycle select/wakeup path. *)

let rec first_set_word words nwords wi =
  if wi >= nwords then -1
  else if words.(wi) = 0 then first_set_word words nwords (wi + 1)
  else
    let w = words.(wi) in
    (wi * bits_per_word) + bit_index (w land -w)

let next_set t i =
  (* First set bit at index >= i, or -1.  [i] may equal [width]. *)
  if i >= t.bits then -1
  else begin
    check t i;
    let wi = i / bits_per_word in
    let w = t.words.(wi) land (lnot 0 lsl (i mod bits_per_word)) in
    if w <> 0 then (wi * bits_per_word) + bit_index (w land -w)
    else first_set_word t.words (Array.length t.words) (wi + 1)
  end

let rec nth_bit wi w n =
  let low = w land -w in
  if n = 0 then (wi * bits_per_word) + bit_index low
  else nth_bit wi (w land lnot low) (n - 1)

let rec nth_word words nwords wi n =
  if wi >= nwords then -1
  else
    let c = popcount words.(wi) 0 in
    if n < c then nth_bit wi words.(wi) n else nth_word words nwords (wi + 1) (n - c)

(* Index of the [n]-th (0-based) set bit in increasing order, or -1. *)
let nth_set t n = if n < 0 then -1 else nth_word t.words (Array.length t.words) 0 n

(* First set bit at index >= i, else the first one below i: a circular
   scan starting at [i], the age-ordered picker's inner loop. *)
let next_set_circular t i =
  let j = next_set t i in
  if j >= 0 || i = 0 then j else next_set t 0

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0
