(** Byte-traffic accounting by source category.

    Two taps use this module: the {e raw} traffic applications present to
    each client operating system (Table 5) and the traffic that reaches
    each server after the client caches have filtered it (Table 7). *)

type category =
  | File_data  (** cacheable reads/writes of regular files *)
  | Shared  (** uncacheable traffic on write-shared files *)
  | Directory  (** directory reads (not cached on clients) *)
  | Paging_cached  (** code and initialized-data faults (cacheable) *)
  | Paging_backing  (** backing-file page-ins/outs (uncacheable on clients) *)
  | Other  (** naming and miscellaneous *)

val all_categories : category list

val category_name : category -> string

val cacheable : category -> bool

type t

val create : unit -> t

val add_read : t -> category -> int -> unit

val add_write : t -> category -> int -> unit

val read_bytes : t -> category -> int

val write_bytes : t -> category -> int

val total_read : t -> int

val total : t -> int

val merge : t -> t -> t
(** Element-wise sum (for aggregating clients). *)
