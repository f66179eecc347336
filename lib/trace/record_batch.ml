module A1 = Bigarray.Array1

type f64_col = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type i32_col = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

type u8_col = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

let f64 n : f64_col = A1.create Bigarray.float64 Bigarray.c_layout n

let i32 n : i32_col = A1.create Bigarray.int32 Bigarray.c_layout n

let u8 n : u8_col = A1.create Bigarray.int8_unsigned Bigarray.c_layout n

(* Columns live outside the OCaml heap (Bigarray data is malloc'd), so a
   batch costs a handful of heap words regardless of length and big
   traces stop dominating [Gc] peak-heap statistics. *)
type t = {
  len : int;
  times : f64_col;
  servers : i32_col;
  clients : i32_col;
  users : i32_col;
  pids : i32_col;
  files : i32_col;
  tags : u8_col;
  col_a : i32_col;
  col_b : i32_col;
  col_c : i32_col;
  col_d : i32_col;
}

let length t = t.len

let tag_open = 0

let tag_close = 1

let tag_reposition = 2

let tag_delete = 3

let tag_truncate = 4

let tag_dir_read = 5

let tag_shared_read = 6

let tag_shared_write = 7

let bit_migrated = 0x08

let bit_created = 0x40

let bit_is_dir = 0x80

let mode_shift = 4

(* Ids and payloads are stored as int32; anything wider is rejected
   loudly at append time rather than silently truncated. *)
let i32_min_int = -0x8000_0000

let i32_max_int = 0x7FFF_FFFF

let overflow what v =
  invalid_arg (Printf.sprintf "Record_batch: %s %d overflows int32" what v)

let[@inline] to_i32 what v =
  if v < i32_min_int || v > i32_max_int then overflow what v
  else Int32.of_int v

(* -- accessors ------------------------------------------------------------ *)

(* Every column of a well-formed batch has dimension [len], so the
   Bigarray bounds check in [A1.get] is exactly the batch bounds check;
   [Unsafe] below skips it for loops that already know [0 <= i < len]. *)

let[@inline] time t i = A1.get t.times i

let[@inline] server t i = Int32.to_int (A1.get t.servers i)

let[@inline] client t i = Int32.to_int (A1.get t.clients i)

let[@inline] user t i = Int32.to_int (A1.get t.users i)

let[@inline] pid t i = Int32.to_int (A1.get t.pids i)

let[@inline] file t i = Int32.to_int (A1.get t.files i)

let[@inline] user_id t i = Ids.User.of_int (user t i)

let[@inline] file_id t i = Ids.File.of_int (file t i)

let[@inline] raw_tag t i = A1.get t.tags i

let[@inline] tag t i = raw_tag t i land 0x07

let[@inline] migrated t i = raw_tag t i land bit_migrated <> 0

let mode_of_bits = function
  | 0 -> Record.Read_only
  | 1 -> Record.Write_only
  | 2 -> Record.Read_write
  | n -> invalid_arg (Printf.sprintf "Record_batch: bad open mode bits %d" n)

let mode_to_bits = function
  | Record.Read_only -> 0
  | Record.Write_only -> 1
  | Record.Read_write -> 2

let[@inline] open_mode t i = mode_of_bits ((raw_tag t i lsr mode_shift) land 0x03)

let[@inline] created t i = raw_tag t i land bit_created <> 0

let[@inline] is_dir t i = raw_tag t i land bit_is_dir <> 0

let[@inline] a t i = Int32.to_int (A1.get t.col_a i)

let[@inline] b t i = Int32.to_int (A1.get t.col_b i)

let[@inline] c t i = Int32.to_int (A1.get t.col_c i)

let[@inline] d t i = Int32.to_int (A1.get t.col_d i)

module Unsafe = struct
  let[@inline] time t i = A1.unsafe_get t.times i

  let[@inline] server t i = Int32.to_int (A1.unsafe_get t.servers i)

  let[@inline] client t i = Int32.to_int (A1.unsafe_get t.clients i)

  let[@inline] user t i = Int32.to_int (A1.unsafe_get t.users i)

  let[@inline] pid t i = Int32.to_int (A1.unsafe_get t.pids i)

  let[@inline] file t i = Int32.to_int (A1.unsafe_get t.files i)

  let[@inline] user_id t i = Ids.User.of_int (user t i)

  let[@inline] file_id t i = Ids.File.of_int (file t i)

  let[@inline] raw_tag t i = A1.unsafe_get t.tags i

  let[@inline] tag t i = raw_tag t i land 0x07

  let[@inline] migrated t i = raw_tag t i land bit_migrated <> 0

  let[@inline] open_mode t i =
    mode_of_bits ((raw_tag t i lsr mode_shift) land 0x03)

  let[@inline] created t i = raw_tag t i land bit_created <> 0

  let[@inline] is_dir t i = raw_tag t i land bit_is_dir <> 0

  let[@inline] a t i = Int32.to_int (A1.unsafe_get t.col_a i)

  let[@inline] b t i = Int32.to_int (A1.unsafe_get t.col_b i)

  let[@inline] c t i = Int32.to_int (A1.unsafe_get t.col_c i)

  let[@inline] d t i = Int32.to_int (A1.unsafe_get t.col_d i)
end

(* -- packing ------------------------------------------------------------- *)

let pack_kind kind ~migrated =
  let mig = if migrated then bit_migrated else 0 in
  match (kind : Record.kind) with
  | Open { mode; created; is_dir; size; start_pos } ->
    let tag =
      tag_open lor mig
      lor (mode_to_bits mode lsl mode_shift)
      lor (if created then bit_created else 0)
      lor if is_dir then bit_is_dir else 0
    in
    (tag, size, start_pos, 0, 0)
  | Close { size; final_pos; bytes_read; bytes_written } ->
    (tag_close lor mig, size, final_pos, bytes_read, bytes_written)
  | Reposition { pos_before; pos_after } ->
    (tag_reposition lor mig, pos_before, pos_after, 0, 0)
  | Delete { size; is_dir } ->
    (tag_delete lor mig lor (if is_dir then bit_is_dir else 0), size, 0, 0, 0)
  | Truncate { old_size } -> (tag_truncate lor mig, old_size, 0, 0, 0)
  | Dir_read { bytes } -> (tag_dir_read lor mig, bytes, 0, 0, 0)
  | Shared_read { offset; length } ->
    (tag_shared_read lor mig, offset, length, 0, 0)
  | Shared_write { offset; length } ->
    (tag_shared_write lor mig, offset, length, 0, 0)

let unpack_kind ~raw_tag ~a ~b ~c ~d : Record.kind =
  match raw_tag land 0x07 with
  | 0 ->
    Open
      {
        mode = mode_of_bits ((raw_tag lsr mode_shift) land 0x03);
        created = raw_tag land bit_created <> 0;
        is_dir = raw_tag land bit_is_dir <> 0;
        size = a;
        start_pos = b;
      }
  | 1 -> Close { size = a; final_pos = b; bytes_read = c; bytes_written = d }
  | 2 -> Reposition { pos_before = a; pos_after = b }
  | 3 -> Delete { size = a; is_dir = raw_tag land bit_is_dir <> 0 }
  | 4 -> Truncate { old_size = a }
  | 5 -> Dir_read { bytes = a }
  | 6 -> Shared_read { offset = a; length = b }
  | _ -> Shared_write { offset = a; length = b }

(* -- conversions --------------------------------------------------------- *)

let kind t i =
  unpack_kind ~raw_tag:(raw_tag t i) ~a:(a t i) ~b:(b t i) ~c:(c t i)
    ~d:(d t i)

let get t i : Record.t =
  {
    time = time t i;
    server = Ids.Server.of_int (server t i);
    client = Ids.Client.of_int (client t i);
    user = user_id t i;
    pid = Ids.Process.of_int (pid t i);
    migrated = migrated t i;
    file = file_id t i;
    kind = kind t i;
  }

let to_array t = Array.init t.len (get t)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

(* [Record.validate] on the columns.  The [lor] of the ten int columns
   is negative iff one of them is, and an int32 column cannot exceed
   [Record.max_field], so a good row allocates nothing.  Only a row
   that fails is unpacked for [Record.validate_fields], which decides on
   the columns its kind uses and words the message. *)
let row_error t i =
  let time = time t i in
  if
    Float.is_finite time && time >= 0.0
    && Unsafe.server t i lor Unsafe.client t i lor Unsafe.user t i
       lor Unsafe.pid t i lor Unsafe.file t i lor Unsafe.a t i
       lor Unsafe.b t i lor Unsafe.c t i lor Unsafe.d t i
       >= 0
  then None
  else
    match
      Record.validate_fields ~time ~server:(server t i) ~client:(client t i)
        ~user:(user t i) ~pid:(pid t i) ~file:(file t i) (kind t i)
    with
    | Ok () -> None
    | Error e -> Some e

let equal x y =
  x.len = y.len
  &&
  let ok = ref true in
  (try
     for i = 0 to x.len - 1 do
       if
         not
           (Float.equal (time x i) (time y i)
           && server x i = server y i
           && client x i = client y i
           && user x i = user y i
           && pid x i = pid y i
           && file x i = file y i
           && raw_tag x i = raw_tag y i
           && a x i = a y i
           && b x i = b y i
           && c x i = c y i
           && d x i = d y i)
       then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  !ok

(* -- column-level construction (mmap'd segments) -------------------------- *)

let of_columns ~len ~times ~servers ~clients ~users ~pids ~files ~tags ~col_a
    ~col_b ~col_c ~col_d =
  if len < 0 then invalid_arg "Record_batch.of_columns: negative length";
  let dim_f (c : f64_col) = A1.dim c in
  let dim_i (c : i32_col) = A1.dim c in
  if
    dim_f times <> len || dim_i servers <> len || dim_i clients <> len
    || dim_i users <> len || dim_i pids <> len || dim_i files <> len
    || A1.dim tags <> len || dim_i col_a <> len || dim_i col_b <> len
    || dim_i col_c <> len || dim_i col_d <> len
  then invalid_arg "Record_batch.of_columns: column dimension mismatch";
  { len; times; servers; clients; users; pids; files; tags; col_a; col_b;
    col_c; col_d }

(* -- builder ------------------------------------------------------------- *)

module Builder = struct
  type batch = t

  type t = {
    mutable len : int;
    mutable times : f64_col;
    mutable servers : i32_col;
    mutable clients : i32_col;
    mutable users : i32_col;
    mutable pids : i32_col;
    mutable files : i32_col;
    mutable tags : u8_col;
    mutable col_a : i32_col;
    mutable col_b : i32_col;
    mutable col_c : i32_col;
    mutable col_d : i32_col;
  }

  let create ?(capacity = 1024) () =
    let capacity = max 16 capacity in
    {
      len = 0;
      times = f64 capacity;
      servers = i32 capacity;
      clients = i32 capacity;
      users = i32 capacity;
      pids = i32 capacity;
      files = i32 capacity;
      tags = u8 capacity;
      col_a = i32 capacity;
      col_b = i32 capacity;
      col_c = i32 capacity;
      col_d = i32 capacity;
    }

  let length t = t.len

  let grow t =
    let cap = A1.dim t.times in
    let cap' = cap * 2 in
    let gi (old : i32_col) =
      let fresh = i32 cap' in
      A1.blit old (A1.sub fresh 0 cap);
      fresh
    in
    (let fresh = f64 cap' in
     A1.blit t.times (A1.sub fresh 0 cap);
     t.times <- fresh);
    t.servers <- gi t.servers;
    t.clients <- gi t.clients;
    t.users <- gi t.users;
    t.pids <- gi t.pids;
    t.files <- gi t.files;
    (let fresh = u8 cap' in
     A1.blit t.tags (A1.sub fresh 0 cap);
     t.tags <- fresh);
    t.col_a <- gi t.col_a;
    t.col_b <- gi t.col_b;
    t.col_c <- gi t.col_c;
    t.col_d <- gi t.col_d

  let add_raw t ~time ~server ~client ~user ~pid ~file ~raw_tag ~a ~b ~c ~d =
    if t.len = A1.dim t.times then grow t;
    let i = t.len in
    A1.unsafe_set t.times i time;
    A1.unsafe_set t.servers i (to_i32 "server" server);
    A1.unsafe_set t.clients i (to_i32 "client" client);
    A1.unsafe_set t.users i (to_i32 "user" user);
    A1.unsafe_set t.pids i (to_i32 "pid" pid);
    A1.unsafe_set t.files i (to_i32 "file" file);
    A1.unsafe_set t.tags i (raw_tag land 0xFF);
    A1.unsafe_set t.col_a i (to_i32 "payload a" a);
    A1.unsafe_set t.col_b i (to_i32 "payload b" b);
    A1.unsafe_set t.col_c i (to_i32 "payload c" c);
    A1.unsafe_set t.col_d i (to_i32 "payload d" d);
    t.len <- i + 1

  let add t (r : Record.t) =
    let raw_tag, a, b, c, d = pack_kind r.kind ~migrated:r.migrated in
    add_raw t ~time:r.time
      ~server:(Ids.Server.to_int r.server)
      ~client:(Ids.Client.to_int r.client)
      ~user:(Ids.User.to_int r.user)
      ~pid:(Ids.Process.to_int r.pid)
      ~file:(Ids.File.to_int r.file)
      ~raw_tag ~a ~b ~c ~d

  (* Append one record of an existing batch; the source columns are
     already int32 so no range checks are needed. *)
  let add_from t (src : batch) i =
    if t.len = A1.dim t.times then grow t;
    let j = t.len in
    A1.unsafe_set t.times j (A1.unsafe_get src.times i);
    A1.unsafe_set t.servers j (A1.unsafe_get src.servers i);
    A1.unsafe_set t.clients j (A1.unsafe_get src.clients i);
    A1.unsafe_set t.users j (A1.unsafe_get src.users i);
    A1.unsafe_set t.pids j (A1.unsafe_get src.pids i);
    A1.unsafe_set t.files j (A1.unsafe_get src.files i);
    A1.unsafe_set t.tags j (A1.unsafe_get src.tags i);
    A1.unsafe_set t.col_a j (A1.unsafe_get src.col_a i);
    A1.unsafe_set t.col_b j (A1.unsafe_get src.col_b i);
    A1.unsafe_set t.col_c j (A1.unsafe_get src.col_c i);
    A1.unsafe_set t.col_d j (A1.unsafe_get src.col_d i);
    t.len <- j + 1

  (* Whole-batch append: grow once, then one blit per column. *)
  let append_batch t (src : batch) =
    let n = src.len in
    if n > 0 then begin
      while t.len + n > A1.dim t.times do
        grow t
      done;
      let j = t.len in
      let blit_f64 (a : f64_col) (b : f64_col) =
        A1.blit (A1.sub a 0 n) (A1.sub b j n)
      in
      let blit_i32 (a : i32_col) (b : i32_col) =
        A1.blit (A1.sub a 0 n) (A1.sub b j n)
      in
      let blit_u8 (a : u8_col) (b : u8_col) =
        A1.blit (A1.sub a 0 n) (A1.sub b j n)
      in
      blit_f64 src.times t.times;
      blit_i32 src.servers t.servers;
      blit_i32 src.clients t.clients;
      blit_i32 src.users t.users;
      blit_i32 src.pids t.pids;
      blit_i32 src.files t.files;
      blit_u8 src.tags t.tags;
      blit_i32 src.col_a t.col_a;
      blit_i32 src.col_b t.col_b;
      blit_i32 src.col_c t.col_c;
      blit_i32 src.col_d t.col_d;
      t.len <- j + n
    end

  let copy_f64 (src : f64_col) n =
    let dst = f64 n in
    A1.blit (A1.sub src 0 n) dst;
    dst

  let copy_i32 (src : i32_col) n =
    let dst = i32 n in
    A1.blit (A1.sub src 0 n) dst;
    dst

  let copy_u8 (src : u8_col) n =
    let dst = u8 n in
    A1.blit (A1.sub src 0 n) dst;
    dst

  let finish t : batch =
    let n = t.len in
    {
      len = n;
      times = copy_f64 t.times n;
      servers = copy_i32 t.servers n;
      clients = copy_i32 t.clients n;
      users = copy_i32 t.users n;
      pids = copy_i32 t.pids n;
      files = copy_i32 t.files n;
      tags = copy_u8 t.tags n;
      col_a = copy_i32 t.col_a n;
      col_b = copy_i32 t.col_b n;
      col_c = copy_i32 t.col_c n;
      col_d = copy_i32 t.col_d n;
    }

  (* Identical copies, but [finish] documents that the builder is done
     while [snapshot] leaves it usable — the chunked sink snapshots its
     open chunk without disturbing later appends. *)
  let snapshot t : batch = finish t

  let reset t = t.len <- 0
end

let of_list records =
  let builder = Builder.create ~capacity:(max 16 (List.length records)) () in
  List.iter (Builder.add builder) records;
  Builder.finish builder

let concat = function
  | [ b ] -> b
  | batches ->
    let total = List.fold_left (fun acc b -> acc + b.len) 0 batches in
    let builder = Builder.create ~capacity:(max 16 total) () in
    List.iter (Builder.append_batch builder) batches;
    Builder.finish builder
