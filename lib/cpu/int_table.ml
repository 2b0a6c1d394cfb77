(* Open-addressing int -> int hash table with linear probing, replacing
   the store-queue [(int, int) Hashtbl.t] of the cycle loop.  Keys and
   values are non-negative ints; -1 marks an empty bucket.  Capacity is a
   power of two sized for the maximum live population, so inserts after
   [create] never allocate; deletion uses backward-shift so there are no
   tombstones and probe chains stay short. *)

type t = {
  mask : int;
  keys : int array;
  vals : int array;
  mutable count : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create capacity =
  let size = pow2_at_least (max 8 (2 * capacity)) 8 in
  { mask = size - 1;
    keys = Array.make size (-1);
    vals = Array.make size 0;
    count = 0 }

let length t = t.count

(* Fibonacci-style multiplicative hash; the constant fits a 63-bit int. *)
let hash t key = ((key * 0x2545F4914F6CDD1) lsr 17) land t.mask

let rec probe t key i =
  let k = t.keys.(i) in
  if k = key || k = -1 then i else probe t key ((i + 1) land t.mask)

let find t key =
  if key < 0 then invalid_arg "Int_table.find: negative key";
  let i = probe t key (hash t key) in
  if t.keys.(i) = key then t.vals.(i) else -1

let replace t key value =
  if key < 0 || value < 0 then invalid_arg "Int_table.replace: negative key or value";
  let i = probe t key (hash t key) in
  if t.keys.(i) = -1 then begin
    if t.count >= t.mask then failwith "Int_table.replace: table full";
    t.keys.(i) <- key;
    t.count <- t.count + 1
  end;
  t.vals.(i) <- value

(* Backward-shift deletion: walk the probe chain after the freed bucket,
   moving back any entry whose home slot lies at or before the hole. *)
let rec backshift t hole j =
  let k = t.keys.(j) in
  if k = -1 then t.keys.(hole) <- -1
  else
    let home = hash t k in
    (* distance from home to j wraps; the entry may move into [hole] iff
       hole sits between home and j on the probe path *)
    if (j - home) land t.mask >= (j - hole) land t.mask then begin
      t.keys.(hole) <- k;
      t.vals.(hole) <- t.vals.(j);
      backshift t j ((j + 1) land t.mask)
    end
    else backshift t hole ((j + 1) land t.mask)

let remove t key =
  if key < 0 then invalid_arg "Int_table.remove: negative key";
  let i = probe t key (hash t key) in
  if t.keys.(i) = key then begin
    t.count <- t.count - 1;
    backshift t i ((i + 1) land t.mask)
  end
