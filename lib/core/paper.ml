type range = { value : float; lo : float; hi : float }

let range value lo hi = { value; lo; hi }

(* -- Table 2 ---------------------------------------------------------------- *)

type activity_col = {
  max_active : float;
  avg_active : float;
  sd_active : float;
  avg_tput : float;
  sd_tput : float;
  peak_user : float;
  peak_total : float;
}

let t2_all_10min =
  {
    max_active = 27.0;
    avg_active = 9.1;
    sd_active = 5.1;
    avg_tput = 8.0;
    sd_tput = 36.0;
    peak_user = 458.0;
    peak_total = 681.0;
  }

let t2_mig_10min =
  {
    max_active = 5.0;
    avg_active = 0.91;
    sd_active = 0.98;
    avg_tput = 50.7;
    sd_tput = 96.0;
    peak_user = 458.0;
    peak_total = 616.0;
  }

let t2_bsd_10min_avg_users = 12.6

let t2_bsd_10min_tput = 0.40

let t2_all_10s =
  {
    max_active = 12.0;
    avg_active = 1.6;
    sd_active = 1.5;
    avg_tput = 47.0;
    sd_tput = 268.0;
    peak_user = 9871.0;
    peak_total = 9977.0;
  }

let t2_mig_10s =
  {
    max_active = 4.0;
    avg_active = 0.14;
    sd_active = 0.4;
    avg_tput = 316.0;
    sd_tput = 808.0;
    peak_user = 9871.0;
    peak_total = 9871.0;
  }

let t2_bsd_10s_avg_users = 2.5

let t2_bsd_10s_tput = 1.5

(* -- Table 3 ---------------------------------------------------------------- *)

type t3_class = {
  accesses : range;
  bytes : range;
  whole_by_acc : range;
  seq_by_acc : range;
  rand_by_acc : range;
  whole_by_bytes : range;
  seq_by_bytes : range;
  rand_by_bytes : range;
}

let t3_read_only =
  {
    accesses = range 88.0 82.0 94.0;
    bytes = range 80.0 63.0 93.0;
    whole_by_acc = range 78.0 64.0 91.0;
    seq_by_acc = range 19.0 7.0 33.0;
    rand_by_acc = range 3.0 1.0 5.0;
    whole_by_bytes = range 89.0 46.0 96.0;
    seq_by_bytes = range 5.0 2.0 29.0;
    rand_by_bytes = range 7.0 2.0 37.0;
  }

let t3_write_only =
  {
    accesses = range 11.0 6.0 17.0;
    bytes = range 19.0 7.0 36.0;
    whole_by_acc = range 67.0 50.0 79.0;
    seq_by_acc = range 29.0 18.0 47.0;
    rand_by_acc = range 4.0 2.0 8.0;
    whole_by_bytes = range 69.0 56.0 76.0;
    seq_by_bytes = range 19.0 4.0 27.0;
    rand_by_bytes = range 11.0 4.0 41.0;
  }

let t3_read_write =
  {
    accesses = range 1.0 0.0 1.0;
    bytes = range 1.0 0.0 3.0;
    whole_by_acc = range 0.0 0.0 0.0;
    seq_by_acc = range 0.0 0.0 0.0;
    rand_by_acc = range 100.0 100.0 100.0;
    whole_by_bytes = range 0.0 0.0 0.0;
    seq_by_bytes = range 0.0 0.0 0.0;
    rand_by_bytes = range 100.0 100.0 100.0;
  }

(* -- figures ----------------------------------------------------------------- *)

let fig1_pct_runs_under_10k = 80.0

let fig1_pct_bytes_in_runs_over_1m = 10.0

let fig2_pct_bytes_from_files_over_1m = 40.0

let fig3_pct_opens_under_quarter_s = 75.0

let fig4_pct_files_dead_under_30s = range 72.5 65.0 80.0

let fig4_pct_bytes_dead_under_30s = range 15.0 4.0 27.0

(* -- Table 4 ------------------------------------------------------------------ *)

let t4_avg_cache_mb = 7.0

(* approx: reconstructed from the table's size-change rows *)
let t4_change_15min_avg_kb = 493.0

let t4_change_15min_sd_kb = 1037.0

let t4_change_60min_avg_kb = 1049.0

let t4_change_60min_sd_kb = 1716.0

(* -- Tables 5 and 7 ------------------------------------------------------------ *)

let t5_reads_pct = 81.7

let t5_writes_pct = 18.3

let t5_paging_pct = 34.9

let t5_uncacheable_pct = 20.0

let t7_paging_pct = 35.0

let t7_shared_pct = 1.0

let filter_ratio = 0.50

(* -- Table 6 -------------------------------------------------------------------- *)

type t6_row = {
  total : float;
  total_sd : float;
  migrated : float;
  migrated_sd : float;
}

let t6_read_miss =
  { total = 41.4; total_sd = 26.9; migrated = 22.2; migrated_sd = 20.4 }

let t6_read_miss_traffic =
  { total = 37.1; total_sd = 27.8; migrated = 31.7; migrated_sd = 22.3 }

let t6_writeback_traffic =
  { total = 88.4; total_sd = 455.4; migrated = nan; migrated_sd = nan }

let t6_write_fetch =
  { total = 1.2; total_sd = 6.8; migrated = 1.6; migrated_sd = 1.9 }

let t6_paging_read_miss =
  { total = 28.7; total_sd = 23.6; migrated = 8.8; migrated_sd = 40.3 }

(* -- Tables 8 and 9 --------------------------------------------------------------- *)

let t8_for_block_pct = 79.4

let t8_for_block_age_min = 47.6

let t8_to_vm_pct = 20.6

let t8_to_vm_age_min = 71.1

(* approx: three-fourths by the 30-s delay; of the rest, half by fsync and
   half by recalls; VM-page cleanings are negligible (Section 5.4) *)
let t9_delay_pct = 75.0

let t9_fsync_pct = 12.5

let t9_recall_pct = 12.5

let t9_vm_pct = 0.1

(* -- Table 10 ---------------------------------------------------------------------- *)

let t10_sharing = range 0.34 0.18 0.56

let t10_recall = range 1.7 0.79 3.35

(* -- Table 11 ---------------------------------------------------------------------- *)

type t11_col = {
  errors_per_hour : range;
  users_affected_per_trace : range;
  users_affected_all : float;
  opens_with_error : range;
  migrated_opens_with_error : range;
}

let t11_60s =
  {
    errors_per_hour = range 18.0 8.0 53.0;
    users_affected_per_trace = range 48.0 38.0 54.0;
    users_affected_all = 63.0;
    opens_with_error = range 0.34 0.21 0.93;
    migrated_opens_with_error = range 0.33 0.05 2.8;
  }

let t11_3s =
  {
    errors_per_hour = range 0.59 0.12 1.8;
    users_affected_per_trace = range 7.1 4.5 12.0;
    users_affected_all = 20.0;
    opens_with_error = range 0.011 0.0001 0.032;
    migrated_opens_with_error = range 0.005 0.0 0.055;
  }

(* -- Table 12 ----------------------------------------------------------------------- *)

type t12_row = { bytes_ratio : float; rpc_ratio : float }

let t12_sprite = { bytes_ratio = 1.0; rpc_ratio = 1.0 }

(* approx: "only the token approach shows an improvement... by 2% in terms
   of bytes and 20% in terms of remote procedure calls"; the modified
   scheme was indistinguishable from Sprite *)
let t12_modified = { bytes_ratio = 1.0; rpc_ratio = 1.0 }

let t12_token = { bytes_ratio = 0.98; rpc_ratio = 0.80 }
