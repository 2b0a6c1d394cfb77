type t = {
  mem : Mem_image.t;
  mutable cursor : int;
}

let line = 64

let create () = { mem = Mem_image.create (); cursor = 0x1000_0000 }

let image t = t.mem

let alloc t ~bytes =
  let base = t.cursor in
  let rounded = (bytes + line - 1) / line * line in
  t.cursor <- t.cursor + rounded + line;
  base

let write t ~addr value = Mem_image.set t.mem addr value

let int_array t values =
  let base = alloc t ~bytes:(8 * Array.length values) in
  Array.iteri (fun i v -> write t ~addr:(base + (8 * i)) v) values;
  base

let shuffled_indices rng ~n =
  let a = Array.init n (fun i -> i) in
  Prng.shuffle rng a;
  a

let linked_list t rng ~nodes ~region_bytes ~value_of =
  if nodes * line > region_bytes then
    invalid_arg "Mem_builder.linked_list: region too small";
  let base = alloc t ~bytes:region_bytes in
  let slots = region_bytes / line in
  (* Choose [nodes] distinct line-aligned slots in random order. *)
  let order = shuffled_indices rng ~n:slots in
  let addr_of i = base + (order.(i) * line) in
  for i = 0 to nodes - 1 do
    let addr = addr_of i in
    let next = addr_of ((i + 1) mod nodes) in
    write t ~addr next;
    write t ~addr:(addr + 8) (value_of i)
  done;
  addr_of 0
